"""Project-specific static analysis (``repro lint``).

Six AST-based rules enforce the invariants the dynamic test suite can
only spot-check:

* ``determinism`` — no wall-clock, unseeded RNG, environment reads, or
  hash/set-order hazards on the simulation path;
* ``hot-loop`` — inside ``# lint: hot-begin``/``hot-end`` fences, no
  repeated attribute chains, per-iteration allocation, or global
  lookups;
* ``pickle-safety`` — nothing unpicklable crosses the sweep worker
  spawn;
* ``event-schema`` — emitted and consumed events match the declared
  schema table;
* ``error-taxonomy`` — every raise in the experiment layer resolves to
  the taxonomy root;
* ``crash-ordering`` — annotated crash-consistency regions keep their
  write/fsync/rename order.

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
