"""Project-specific static analysis (``repro lint``).

Four AST-based rules enforce the invariants the dynamic test suite can
only spot-check:

* ``snapshot-coverage`` — every mutable attribute of a ``SimComponent``
  subclass must be restored by ``reset``, and captured by
  ``state_dict``/``load_state_dict`` where the class defines them
  (``SimStats``; waive derived state with ``# lint: ephemeral``);
* ``determinism`` — no wall-clock, unseeded RNG, environment reads, or
  hash/set-order hazards on the simulation path;
* ``hotloop`` — inside ``# lint: hot-begin``/``hot-end`` fences, no
  repeated attribute chains, per-iteration allocation, or global
  lookups (the hoists PR 3 made must not regress);
* ``picklesafe`` — nothing unpicklable crosses the sweep worker spawn.

See ``docs/LINTING.md`` for rule semantics and the waiver syntax.
"""

from repro.lint.config import LintConfig, load_config
from repro.lint.engine import LintReport, run_lint
from repro.lint.findings import Finding
from repro.lint.registry import RULES, rule_names

__all__ = [
    "Finding",
    "LintConfig",
    "LintReport",
    "RULES",
    "load_config",
    "rule_names",
    "run_lint",
]
