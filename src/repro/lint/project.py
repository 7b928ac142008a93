"""Project-level index and approximate call graph for cross-file rules.

The lint engine builds one :func:`build_file_index` payload per file at
analyze time (cached alongside rule payloads), then assembles them into
a :class:`ProjectGraph` once per run at report time.  The graph offers:

* module/import resolution (``import x``, ``from x import y``, relative
  imports) down to project-root-relative file paths;
* a class index with hierarchy resolution across files (multiple
  inheritance included), and
* approximate, name-based call resolution, both used by
  ``error-taxonomy`` (a raise of a factory call follows one hop).

Call resolution is deliberately approximate — it resolves

* ``self.m(...)`` against the enclosing class and its scanned bases,
* plain names against module-level functions and imports,
* ``alias.sym(...)`` through the import map, and
* ``obj.m(...)`` only when exactly one scanned class defines ``m``
  (unique-method fallback),

and silently drops anything else.  Missed edges cost recall, never
false positives, which is the right trade for a lint gate.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.config import LintConfig
from repro.lint.rules.base import dotted_name

#: Method names too generic for the unique-method fallback: an
#: ``obj.get(...)`` edge would be guesswork even if only one scanned
#: class defines ``get``.
_AMBIGUOUS_METHODS = frozenset({
    "get", "set", "put", "add", "pop", "run", "close", "open", "read",
    "write", "update", "items", "keys", "values", "copy", "clear",
    "start", "stop", "send", "join",
})


def module_name(rel_path: str, src_roots: Tuple[str, ...]) -> Optional[str]:
    """Dotted module name of a project-relative path, or None."""
    if not rel_path.endswith(".py"):
        return None
    for root in src_roots:
        prefix = root.rstrip("/") + "/"
        if not rel_path.startswith(prefix):
            continue
        mod = rel_path[len(prefix):-len(".py")]
        if mod.endswith("/__init__"):
            mod = mod[: -len("/__init__")]
        return mod.replace("/", ".")
    return None


def path_of_module(dotted: str, src_roots: Tuple[str, ...],
                   known: Set[str]) -> Optional[str]:
    """Project-relative path for a dotted module, if scanned."""
    as_path = dotted.replace(".", "/")
    for root in src_roots:
        prefix = root.rstrip("/")
        for candidate in (f"{prefix}/{as_path}.py",
                          f"{prefix}/{as_path}/__init__.py"):
            if candidate in known:
                return candidate
    return None


def _resolve_from_base(node: ast.ImportFrom,
                       module: Optional[str]) -> Optional[str]:
    """Absolute dotted base of a ``from ... import`` statement."""
    if node.level == 0:
        return node.module
    if module is None:
        return None
    parts = module.split(".")
    # ``from . import x`` inside package module a.b resolves against a;
    # our scan has no package __init__ special-casing (flat modules).
    drop = node.level
    if drop >= len(parts) + 1:
        return None
    base = parts[: len(parts) - drop]
    if node.module:
        base.append(node.module)
    return ".".join(base) if base else None


def _collect_imports(tree: ast.Module,
                     module: Optional[str]) -> Dict[str, str]:
    """Local binding -> absolute dotted target, for the whole file.

    Covers ``import``/``from ... import`` plus the
    ``X = importlib.import_module("pkg.mod")`` idiom the service uses
    to reach a submodule shadowed by a same-named re-export.
    """
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and \
                isinstance(node.value, ast.Call) and \
                dotted_name(node.value.func) in (
                    "importlib.import_module", "import_module") and \
                node.value.args and \
                isinstance(node.value.args[0], ast.Constant) and \
                isinstance(node.value.args[0].value, str):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    imports[target.id] = node.value.args[0].value
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    imports.setdefault(root, root)
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_from_base(node, module)
            if base is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{base}.{alias.name}"
    return imports


def _func_info(fn: ast.AST) -> dict:
    return {"line": fn.lineno}


def build_file_index(tree: ast.Module, rel_path: str,
                     config: LintConfig, known: Set[str]) -> dict:
    """JSON-serializable project index for one file (engine-cached)."""
    module = module_name(rel_path, config.src_roots)
    imports = _collect_imports(tree, module)

    classes: Dict[str, dict] = {}
    functions: Dict[str, dict] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            methods = {
                sub.name: _func_info(sub)
                for sub in stmt.body
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            bases = [dotted_name(b) for b in stmt.bases]
            classes[stmt.name] = {
                "line": stmt.lineno,
                "bases": [b for b in bases if b],
                "methods": methods,
            }
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[stmt.name] = _func_info(stmt)

    deps: Set[str] = set()
    for target in imports.values():
        path = path_of_module(target, config.src_roots, known)
        if path is None and "." in target:
            # ``from repro.x import sym`` binds to target repro.x.sym.
            path = path_of_module(target.rsplit(".", 1)[0],
                                  config.src_roots, known)
        if path and path != rel_path:
            deps.add(path)

    return {
        "module": module,
        "imports": imports,
        "deps": sorted(deps),
        "classes": classes,
        "functions": functions,
    }


class ProjectGraph:
    """Whole-run view over every file's :func:`build_file_index`."""

    def __init__(self, indices: Dict[str, dict], config: LintConfig):
        self.indices = indices
        self.config = config
        self._module_to_path: Dict[str, str] = {}
        #: class name -> [(path, info)] — names are near-unique here.
        self._classes: Dict[str, List[Tuple[str, dict]]] = {}
        #: method name -> [(path, class name)] for the unique fallback.
        self._method_sites: Dict[str, List[Tuple[str, str]]] = {}
        for path, idx in indices.items():
            if idx.get("module"):
                self._module_to_path[idx["module"]] = path
            for cname, cinfo in idx.get("classes", {}).items():
                self._classes.setdefault(cname, []).append((path, cinfo))
                for mname in cinfo["methods"]:
                    self._method_sites.setdefault(mname, []).append(
                        (path, cname))

    # -- class hierarchy -----------------------------------------------
    def resolve_class(self, path: str,
                      name: str) -> Optional[Tuple[str, str]]:
        """``(defining path, class name)`` for a class reference in
        ``path`` — local class, imported symbol, or ``mod.Class``."""
        idx = self.indices.get(path)
        if idx is None:
            return None
        head = name.split(".", 1)[0]
        if "." not in name and name in idx.get("classes", {}):
            return path, name
        target = idx.get("imports", {}).get(head)
        if target is None:
            return None
        dotted = target if "." not in name else \
            f"{target}.{name.split('.', 1)[1]}"
        return self._class_of_dotted(dotted)

    def _class_of_dotted(self, dotted: str) -> Optional[Tuple[str, str]]:
        if "." not in dotted:
            return None
        mod, sym = dotted.rsplit(".", 1)
        mpath = self._module_to_path.get(mod)
        if mpath and sym in self.indices[mpath].get("classes", {}):
            return mpath, sym
        return None

    def class_closure(self, root_name: str) -> Set[Tuple[str, str]]:
        """Every scanned class equal to or (transitively, via any base)
        derived from ``root_name``, multiple inheritance included."""
        closure: Set[Tuple[str, str]] = set()
        for site in self._classes.get(root_name, ()):
            closure.add((site[0], root_name))
        changed = True
        while changed:
            changed = False
            for path, idx in self.indices.items():
                for cname, cinfo in idx.get("classes", {}).items():
                    if (path, cname) in closure:
                        continue
                    for base in cinfo["bases"]:
                        resolved = self.resolve_class(path, base)
                        if resolved in closure or \
                                (resolved is None and
                                 base.rsplit(".", 1)[-1] == root_name):
                            closure.add((path, cname))
                            changed = True
                            break
        return closure

    def mro_chain(self, path: str, cname: str) -> List[Tuple[str, str]]:
        """Approximate linearization of a class and scanned ancestors."""
        out: List[Tuple[str, str]] = []
        seen: Set[Tuple[str, str]] = set()
        queue = deque([(path, cname)])
        while queue:
            site = queue.popleft()
            if site in seen or site[0] not in self.indices:
                continue
            cinfo = self.indices[site[0]].get("classes", {}).get(site[1])
            if cinfo is None:
                continue
            seen.add(site)
            out.append(site)
            for base in cinfo["bases"]:
                resolved = self.resolve_class(site[0], base)
                if resolved:
                    queue.append(resolved)
        return out

    # -- call graph ----------------------------------------------------
    def resolve_call(self, path: str, caller_qual: str,
                     name: str) -> Optional[Tuple[str, str]]:
        """Callee site for call expression ``name`` inside ``caller``."""
        idx = self.indices.get(path)
        if idx is None:
            return None
        if name.startswith("self."):
            mname = name[len("self."):]
            if "." in mname or "." not in caller_qual:
                return None
            cname = caller_qual.split(".", 1)[0]
            for cpath, ccls in self.mro_chain(path, cname):
                cinfo = self.indices[cpath]["classes"][ccls]
                if mname in cinfo["methods"]:
                    return cpath, f"{ccls}.{mname}"
            return None
        head = name.split(".", 1)[0]
        if "." not in name:
            if name in idx.get("functions", {}):
                return path, name
            target = idx.get("imports", {}).get(name)
            if target:
                return self._callable_of_dotted(target)
            return None
        target = idx.get("imports", {}).get(head)
        if target:
            dotted = f"{target}.{name.split('.', 1)[1]}"
            return self._callable_of_dotted(dotted)
        # obj.m(...): unique-method fallback on the last attribute.
        mname = name.rsplit(".", 1)[1]
        if mname.startswith("__") or mname in _AMBIGUOUS_METHODS:
            return None
        sites = self._method_sites.get(mname, ())
        if len(sites) == 1:
            spath, scls = sites[0]
            return spath, f"{scls}.{mname}"
        return None

    def _callable_of_dotted(self,
                            dotted: str) -> Optional[Tuple[str, str]]:
        """``mod.func`` / ``mod.Class`` / ``mod.Class.method`` site."""
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:split])
            mpath = self._module_to_path.get(mod)
            if mpath is None:
                continue
            idx = self.indices[mpath]
            rest = parts[split:]
            if len(rest) == 1:
                sym = rest[0]
                if sym in idx.get("functions", {}):
                    return mpath, sym
                cinfo = idx.get("classes", {}).get(sym)
                if cinfo:
                    # Calling a class runs its constructor.
                    if "__init__" in cinfo["methods"]:
                        return mpath, f"{sym}.__init__"
                    return mpath, sym
            elif len(rest) == 2:
                cinfo = idx.get("classes", {}).get(rest[0])
                if cinfo and rest[1] in cinfo["methods"]:
                    return mpath, f"{rest[0]}.{rest[1]}"
            return None
        return None

    def deps_of(self, path: str) -> List[str]:
        idx = self.indices.get(path)
        return list(idx.get("deps", ())) if idx else []
