"""Every call in the shipped files, resolved to the definitions it can
reach: what the field, parameter and function checks count with."""

import ast

from tests.hygiene.shipped import _shipped_trees


#: How the CLI calls a registered runner (``exp.run(**kwargs)``): the
#: reachability checks read it as one call per ``Experiment(...)`` entry of
#: the registry, passing that entry's ``fast`` keys (and ``workers`` when
#: the entry supports workers).
_REGISTRY_RUN = "exp.run"


class _Call:
    """One call in a shipped file, as the reachability checks see it."""

    def __init__(self, node, targets, args, path, cls, caller):
        self.node = node
        #: The file it is in, and the class of the method it is in.
        self.path = path
        self.cls = cls
        #: What it reaches: ``("func", module, name)``, ``("init", class)``,
        #: ``("method", name)``, or ``("name", name)`` -- anything so
        #: named -- when the callee is not resolved.
        self.targets = targets
        self.args = args
        #: Keyword name -> value node, splats' known keys included.
        self.keywords = {}
        #: Whether a ``*args`` splat passes positional arguments.
        self.star = any(isinstance(arg, ast.Starred) for arg in args)
        #: Functions whose own ``**kwargs`` a splat passes on.
        self.forwards = []
        #: Whether a ``**`` splat passes keys nobody can list.
        self.unknown = False
        #: The enclosing function or lambda, None at module level.
        self.caller = caller


class _Def:
    """One ``def`` in a shipped file."""

    def __init__(self, node, module, package, qualname, cls, parent):
        self.node = node
        self.module = module
        #: Whether it is defined in ``src/repro`` (not an entry script).
        self.package = package
        self.qualname = qualname
        #: The class whose body defines it, for a method.
        self.cls = cls
        #: The function it is defined in, None for a method or a
        #: module-level function.
        self.parent = parent


class _Resolver:
    """The shipped files (``_shipped_trees``), with every call resolved to
    the definitions it can reach.

    ``mod.f(...)`` with ``mod`` bound by an import resolves to that
    module's ``f``; ``Cls(...)`` and ``super().__init__`` to the class;
    ``obj.m(...)`` on any other receiver to the methods named ``m``; a bare
    ``f(...)`` to the module-level ``f`` in scope (a closure, when ``f``
    is bound to what its maker returns), and a bare call of the caller's
    own parameter also to what the caller's callers pass for it.  A call
    it cannot resolve reaches everything of its name.  A ``**name`` splat
    passes the keys of the dict literal or ``dict(...)`` ``name`` was bound
    to, or, when it passes on the caller's own ``**kwargs``, the keywords
    the caller's callers pass; any other splat passes keys nobody can
    list.  ``_REGISTRY_RUN`` passes each registry entry's ``fast`` keys.
    """

    def __init__(self):
        self.package_dir, self.trees = _shipped_trees()
        self.module_of = {}  # path -> module id (dotted for the package)
        for path in self.trees:
            if self.package_dir in path.parents:
                parts = path.relative_to(self.package_dir.parent).with_suffix("").parts
                self.module_of[path] = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
            else:
                self.module_of[path] = str(path)
        self.path_of = {module: path for path, module in self.module_of.items()}
        self.bindings = {path: self._bindings(tree) for path, tree in self.trees.items()}
        self.bases, self.classes = {}, {}
        for tree in self.trees.values():
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    self.bases[node.name] = [ast.unparse(b).split(".")[-1] for b in node.bases]
                    self.classes[node.name] = node
        self.def_of, self.calls = {}, []  # def_of: def node -> _Def
        for path, tree in self.trees.items():
            self._visit(tree, path, None, None, None, "")
        for call in self.calls:
            self._resolve_parameter_call(call)

    def with_subclasses(self, name):
        """``name`` and every class that derives from it."""
        return {cls for cls in self.bases if name in self.ancestors(cls)}

    def ancestors(self, name):
        """``name`` and every class it derives from, nearest first."""
        found = [name]
        for base in self.bases.get(name, []):
            found += [cls for cls in self.ancestors(base) if cls not in found]
        return found

    def targets_of(self, d):
        """The call targets that reach ``d``."""
        name = d.node.name
        if d.cls is not None and name == "__init__":
            classes = self.with_subclasses(d.cls.name)
            return {("init", cls) for cls in classes} | {("name", cls) for cls in classes}
        if d.cls is not None:
            return {("method", name), ("name", name)}
        if d.parent is not None:
            # A closure its module-level maker returns is reached by
            # calling what the maker's result is bound to.
            returned = any(
                isinstance(node, ast.Return) and ast.unparse(node.value or ast.Constant(None)) == name
                for node in d.parent.body
            )
            return {("name", name)} | ({("made", d.module, d.parent.name)} if returned else set())
        return {("func", d.module, name), ("name", name)}

    def class_of(self, expr, call):
        """The class ``expr``'s value has inside ``call``'s function, read
        from annotations, else None: a class call, an annotated parameter,
        ``self``, or an attribute a class annotates.
        """
        if isinstance(expr, ast.Call):
            inits = {cls for kind, cls, *_ in self.resolve(expr.func, call.path, call.cls) if kind == "init"}
            return inits.pop() if len(inits) == 1 else None
        if isinstance(expr, ast.Name):
            if expr.id == "self" and call.cls is not None:
                return call.cls.name
            caller = call.caller if isinstance(call.caller, ast.FunctionDef) else None
            params = [] if caller is None else caller.args.args + caller.args.kwonlyargs
            return next((_class_named(p.annotation) for p in params if p.arg == expr.id), None)
        if isinstance(expr, ast.Attribute):
            owner = self.class_of(expr.value, call)
            for cls in self.ancestors(owner) if owner in self.classes else []:
                for stmt in self.classes[cls].body:
                    if isinstance(stmt, ast.AnnAssign) and ast.unparse(stmt.target) == expr.attr:
                        return _class_named(stmt.annotation)
                    if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                        for param in stmt.args.args:
                            if param.arg == expr.attr:
                                return _class_named(param.annotation)
        return None

    def keywords(self, call, active=frozenset()):
        """The keywords ``call`` passes (name -> value node), the callers'
        keywords of every ``**kwargs`` it passes on included; None when a
        splat passes keys nobody can list.
        """
        if call.unknown:
            return None
        keywords = {}
        for d in call.forwards:
            passed = self.passed_to(d, active)
            if passed is None:
                return None
            keywords.update(passed)
        return {**keywords, **call.keywords}

    def passed_to(self, d, active=frozenset()):
        """Every keyword a call reaching ``d`` passes, None if unknown."""
        if d.node in active:
            return {}
        targets = self.targets_of(d)
        passed = {}
        for call in self.calls:
            if call.targets & targets:
                keywords = self.keywords(call, active | {d.node})
                if keywords is None:
                    return None
                passed.update(keywords)
        return passed

    def _bindings(self, tree):
        """Name -> ``("module", m)``, ``("symbol", m, name)``, ``("def", node)``,
        ``("class", node)`` or ``("made", maker)``, for a file's imports
        (anywhere in it), its module-level definitions and its module-level
        ``name = maker(...)`` assignments.
        """
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        bound[alias.asname] = ("module", alias.name)
                    else:
                        root = alias.name.split(".")[0]
                        bound[root] = ("module", root)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    full = f"{node.module}.{alias.name}"
                    bound[alias.asname or alias.name] = (
                        ("module", full) if full in self.path_of else ("symbol", node.module, alias.name)
                    )
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bound[node.name] = ("def", node)
            elif isinstance(node, ast.ClassDef):
                bound[node.name] = ("class", node)
            elif (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bound[target.id] = ("made", node.value.func.id)
        return bound

    def _lookup(self, module, name, binding=None):
        """Targets of ``name`` in ``module`` (or of ``binding``): an empty
        set outside ``repro``, None when it is not found.
        """
        if binding is None:
            if module not in self.path_of:
                return None if module.startswith("repro") else set()
            binding = self.bindings[self.path_of[module]].get(name)
        if binding is None:
            return None
        if binding[0] == "def":
            return {("func", module, binding[1].name)}
        if binding[0] == "class":
            return {("init", binding[1].name)}
        if binding[0] == "symbol":
            return self._lookup(binding[1], binding[2])
        if binding[0] == "made":
            return {("made", module, binding[1])}
        return None

    def _module(self, node, path):
        """The module an expression names through an import, else None."""
        binding = self.bindings[path].get(node.id) if isinstance(node, ast.Name) else None
        if binding is not None and binding[0] == "module":
            return binding[1]
        dotted = ast.unparse(node)
        root = self.bindings[path].get(dotted.split(".")[0])
        if dotted in self.path_of and root is not None and root[0] == "module":
            return dotted
        return None

    def resolve(self, func, path, cls):
        """The targets a call of ``func`` reaches."""
        name = ast.unparse(func).split(".")[-1]
        if isinstance(func, ast.Name):
            binding = self.bindings[path].get(func.id)
            found = None if binding is None else self._lookup(self.module_of[path], name, binding)
        elif isinstance(func, ast.Attribute):
            receiver = func.value
            if isinstance(receiver, ast.Call) and ast.unparse(receiver.func) == "super":
                if func.attr == "__init__" and cls is not None:
                    return {("init", base) for base in self.bases[cls.name]}
                return {("method", func.attr)}
            module = self._module(receiver, path)
            if module is None:
                return {("method", func.attr)}
            found = self._lookup(module, func.attr)
        else:
            found = None
        return {("name", name)} if found is None else found

    def _splat(self, value, path, caller, call):
        """Add what a ``**value`` splat passes to ``call``."""
        if isinstance(value, ast.Dict):
            for key, item in zip(value.keys, value.values):
                if key is None:
                    self._splat(item, path, caller, call)
                elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                    call.keywords.setdefault(key.value, item)
                else:
                    call.unknown = True
        elif isinstance(value, ast.Call) and ast.unparse(value.func) == "dict" and not value.args:
            for keyword in value.keywords:
                if keyword.arg is None:
                    self._splat(keyword.value, path, caller, call)
                else:
                    call.keywords.setdefault(keyword.arg, keyword.value)
        elif isinstance(value, ast.IfExp):
            self._splat(value.body, path, caller, call)
            self._splat(value.orelse, path, caller, call)
        elif isinstance(value, ast.DictComp) and ast.unparse(value.value).startswith("getattr(self, "):
            pass  # a copy of the caller's own attributes forwards, it does not set
        elif isinstance(value, ast.Name):
            own = getattr(getattr(caller, "args", None), "kwarg", None)
            if own is not None and own.arg == value.id and caller in self.def_of:
                call.forwards.append(self.def_of[caller])
                return
            module = [s for s in self.trees[path].body if isinstance(s, (ast.Assign, ast.AnnAssign))]
            scope = list(ast.walk(caller)) if caller is not None else []
            values = self._bound_values(scope, value.id) or self._bound_values(module, value.id)
            if not values:
                call.unknown = True
            for bound in values:
                self._splat(bound, path, caller, call)
        else:
            call.unknown = True

    @staticmethod
    def _bound_values(nodes, name):
        """What ``name`` is assigned among ``nodes``: whole values, and
        ``{key: value}`` for each ``name[key] = value``."""
        values = []
        for node in nodes:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    if isinstance(target, ast.Name) and target.id == name:
                        values.append(node.value)
                    elif (
                        isinstance(target, ast.Subscript)
                        and ast.unparse(target.value) == name
                    ):
                        values.append(ast.Dict(keys=[target.slice], values=[node.value]))
        return values

    def _resolve_parameter_call(self, call):
        """A bare call of the caller's own parameter also reaches what
        the caller's callers pass for that parameter."""
        func, caller = call.node.func, call.caller
        if not isinstance(func, ast.Name) or not isinstance(caller, ast.FunctionDef):
            return
        params = [arg.arg for arg in caller.args.posonlyargs + caller.args.args]
        if func.id not in params + [arg.arg for arg in caller.args.kwonlyargs]:
            return
        d = self.def_of[caller]
        if d.cls is not None and func.id == params[0] == "cls":
            call.targets |= {("init", d.cls.name)}  # `cls(...)` in a classmethod
            return
        position = params.index(func.id) if func.id in params else None
        if position is not None and d.cls is not None and params[0] in ("self", "cls"):
            position -= 1
        targets = self.targets_of(d)
        for outer in self.calls:
            if not outer.targets & targets:
                continue
            given = dict(outer.keywords)
            if position is not None and position < len(outer.args):
                given[func.id] = outer.args[position]
            if isinstance(given.get(func.id), (ast.Name, ast.Attribute)):
                call.targets |= self.resolve(given[func.id], outer.path, outer.cls)

    def _record(self, node, path, cls, caller):
        """A ``_Call`` for ``node``; the registry's entries for ``exp.run``."""
        if ast.unparse(node.func) == _REGISTRY_RUN:
            return
        call = _Call(node, self.resolve(node.func, path, cls), node.args, path, cls, caller)
        for keyword in node.keywords:
            if keyword.arg is None:
                self._splat(keyword.value, path, caller, call)
            else:
                call.keywords[keyword.arg] = keyword.value
        self.calls.append(call)
        if call.targets == {("init", "Experiment")}:
            given = {keyword.arg: keyword.value for keyword in node.keywords}
            runner = node.args[2] if len(node.args) > 2 else given["run"]
            entry = _Call(node, self.resolve(runner, path, None), [], path, None, caller)
            if "fast" in given:
                self._splat(given["fast"], path, caller, entry)
            if ast.unparse(given.get("supports_workers", ast.Constant(False))) == "True":
                entry.keywords["workers"] = ast.Name("workers")
            self.calls.append(entry)

    def _visit(self, node, path, cls, owner, caller, prefix):
        """Record the calls and ``def``s under ``node``: ``cls`` is the class
        whose body it is, ``owner`` the class of the enclosing method (for
        ``super()``), ``caller`` the enclosing function or lambda.
        """
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                self._visit(child, path, child, child, caller, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                package = self.package_dir in path.parents
                qualname = f"{prefix}{child.name}"
                self.def_of[child] = _Def(
                    child, self.module_of[path], package, qualname, cls, caller
                )
                self._visit(child, path, None, owner, child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.Lambda):
                self._visit(child, path, None, owner, child, prefix)
            else:
                if isinstance(child, ast.Call):
                    self._record(child, path, owner, caller)
                self._visit(child, path, cls, owner, caller, prefix)


def _class_named(annotation):
    """The class an annotation names (``X | None`` names ``X``), else None."""
    if annotation is None:
        return None
    for part in ast.unparse(annotation).strip("'\"").split("|"):
        if part.strip() != "None":
            return part.strip().split(".")[-1]
    return None
