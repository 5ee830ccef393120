"""Every dataclass field is set by a shipped entry point."""

import ast

from tests.hygiene.resolver import _Resolver


#: Defaulted dataclass fields that no shipped file sets to a non-default
#: value, each kept for the reason given.  Any other such field is a knob
#: nobody turns: delete it, or ship an entry point that sets it.
_NEVER_SET_FIELDS = {
    "RiptideConfig.alpha": "a Table I parameter of the paper's agent: the EWMA's "
    "weight on history",
    "RiptideConfig.c_min": "a Table I parameter of the paper's agent",
    "TcpConfig.delayed_ack": "the packet-path golden cells and the slow-start "
    "oracle set it, and the connection close matrix needs it",
    "TcpConfig.mss": "the segment size every window and byte count in tcp/ and the "
    "fluid engine derives from, threaded through make_cc and FluidPopulation; a "
    "constant would put a global lookup in the per-segment send loop",
    "TcpConfig.rmem_max_bytes": "the receive-memory ceiling that Section III-C "
    "names as the bound on receive-window growth",
}


class FieldsSet:
    def test_every_dataclass_field_is_set_by_a_shipped_entry_point(self):
        """Every defaulted field of a ``@dataclass`` in ``src/repro`` (a
        ``field(default_factory=...)`` container aside) is given a
        non-default value somewhere in ``src/repro`` or an entry-point script.

        A field is written by a call of its class or a subclass (a keyword,
        a positional argument in its place, or a ``**`` splat of a dict
        holding its key, through ``StudyConfig.arm(**specifics)`` too), by
        ``replace(x, field=...)``, by a subclass redeclaring it with another
        default, or, unless its class is frozen, by an attribute store;
        calls resolve as ``_Resolver`` says.  A value that is the field's
        own default expression (compared with ``ast.unparse``) or a read
        of the same-named attribute (``x=self.config.x`` forwards) does not
        write it.  A splat nobody can list writes every field of its class,
        so the check never flags one in use.
        """
        index = _Resolver()
        defaults = {}
        fields = {}  # dataclass name -> its field names in declaration order
        frozen = set()
        for path, tree in index.trees.items():
            if index.package_dir not in path.parents:
                continue
            for node in ast.walk(tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                decorators = [ast.unparse(d) for d in node.decorator_list]
                if not any(d.startswith("dataclass") for d in decorators):
                    continue
                if any("frozen=True" in d for d in decorators):
                    frozen.add(node.name)
                for stmt in node.body:
                    annotation = ast.unparse(getattr(stmt, "annotation", ast.Constant(None)))
                    if not isinstance(stmt, ast.AnnAssign) or annotation.startswith("ClassVar"):
                        continue
                    fields.setdefault(node.name, []).append(stmt.target.id)
                    if stmt.value is not None and "default_factory" not in ast.unparse(
                        stmt.value
                    ):
                        defaults[f"{node.name}.{stmt.target.id}"] = ast.unparse(stmt.value)

        def declaring(cls):
            """Field name -> the keys declaring it, in ``cls``'s field order."""
            found = {}
            for owner in reversed(index.ancestors(cls)) if cls in fields or cls in index.bases else []:
                for name in fields.get(owner, []):
                    found.setdefault(name, []).append(f"{owner}.{name}")
            return found

        written, forwards = set(), []  # forwards: (key, source key or None)

        def write(key, value, call=None):
            name = key.split(".")[1]
            if value is None:
                written.add(key)
            elif isinstance(value, ast.Attribute) and value.attr == name:
                source = declaring(index.class_of(value.value, call)).get(name, [None])[-1]
                forwards.append((key, source))
            elif ast.unparse(value) != defaults.get(key):
                written.add(key)

        for cls in fields:
            for keys in declaring(cls).values():
                if len(keys) > 1:
                    written.update(keys)  # a redeclaration sets another default
        for call in index.calls:
            keywords = index.keywords(call)
            if ast.unparse(call.node.func).split(".")[-1] == "replace" and call.args:
                known = declaring(index.class_of(call.args[0], call))
                for key in defaults:
                    name = key.split(".")[1]
                    if known and key not in known.get(name, []):
                        continue
                    if keywords is None or name in keywords:
                        write(key, None if keywords is None else keywords[name], call)
            for kind, cls, *_ in call.targets:
                if kind not in ("init", "name") or cls not in index.bases:
                    continue
                for position, (name, keys) in enumerate(declaring(cls).items()):
                    for key in keys:
                        if keywords is None or call.star:
                            write(key, None)
                        elif position < len(call.args):
                            write(key, call.args[position], call)
                        elif name in keywords:
                            write(key, keywords[name], call)
        for tree in index.trees.values():
            for node in ast.walk(tree):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for target in targets:
                        for key in defaults:
                            cls, name = key.split(".")
                            if cls not in frozen and getattr(target, "attr", None) == name:
                                write(key, node.value)
        def passes(key, source):
            if source is not None:
                return source in written or source not in defaults
            return any(k.split(".")[1] == key.split(".")[1] for k in written - {key})

        while newly := {key for key, source in forwards if passes(key, source)} - written:
            written |= newly
        assert set(defaults) - written == set(_NEVER_SET_FIELDS)
