"""Per-rule AST visitors for ``repro lint``.

Each rule module exposes a class with:

* ``name`` — the rule identifier (``--rule NAME``);
* ``analyze(ctx)`` — walk ``ctx.tree`` once and return a
  JSON-serializable per-file payload (cached by content hash);
* ``report(payloads, config, graph)`` — turn the per-file payloads of
  a whole run into :class:`~repro.lint.findings.Finding` records,
  with the shared :class:`~repro.lint.project.ProjectGraph` available
  for cross-file resolution.  Most per-file rules emit findings
  directly from ``analyze``; the project-level rules
  (``event-schema``, ``error-taxonomy``) consult the graph at report
  time.
"""

from repro.lint.rules.determinism import DeterminismRule
from repro.lint.rules.event_schema import EventSchemaRule
from repro.lint.rules.hotloop import HotLoopRule
from repro.lint.rules.ordering import CrashOrderingRule
from repro.lint.rules.pickles import PickleSafetyRule
from repro.lint.rules.taxonomy import ErrorTaxonomyRule

__all__ = [
    "CrashOrderingRule",
    "DeterminismRule",
    "ErrorTaxonomyRule",
    "EventSchemaRule",
    "HotLoopRule",
    "PickleSafetyRule",
]
