"""Every defaulted parameter is set by a shipped entry point."""

import ast

from tests.hygiene.resolver import _Resolver


#: Defaulted function and method parameters that no shipped file passes a
#: non-default value, each kept for the reason given.  Any other such
#: parameter is a knob nobody turns: delete it with the branch it selects,
#: make it a module constant, or ship an entry point that sets it.
_NEVER_SET_PARAMETERS = {
    "cli.main(argv)": "how the CLI is driven in-process; `python -m repro` "
    "leaves it to argparse to read sys.argv",
    "linux.ip_tool.IpRouteTool.route_add(initcwnd)": "the `ip route add ... "
    "initcwnd N` row of PAPER.md's mechanism table",
    "linux.ip_tool.IpRouteTool.route_add(initrwnd)": "the per-route `initrwnd` "
    "of PAPER.md's mechanism table, the receive-side half of a jump-start",
    "linux.ip_tool.IpRouteTool.route_replace(initrwnd)": "the per-route "
    "`initrwnd` of PAPER.md's mechanism table, on the verb the agent uses",
    "sim.kernel.Simulator.run(max_events)": "the single-step seam "
    "tests/sim/test_differential.py drives its oracle through",
}


class ParametersSet:
    def test_every_defaulted_parameter_is_set_by_a_shipped_entry_point(self):
        """Every defaulted parameter of a function or method in ``src/repro``
        is passed a non-default value somewhere in a shipped file.

        A call counts only for the callees ``_Resolver`` resolves it to.  A
        positional argument at or past the parameter's index sets it, and
        so does a ``*args`` splat.  A keyword, or a key a ``**`` splat
        passes, sets it unless its value is the default expression
        (compared with ``ast.unparse``); a bare ``name=name`` forward of
        the caller's own parameter sets it only if that parameter is
        required or is itself set (solved to a fixed point).  A splat
        nobody can list sets every parameter of its callees, and a call
        nobody can resolve reaches every callee of its name, so the check
        never flags a parameter in use.
        """
        index = _Resolver()
        defaults = {}  # key -> default source
        callees = {}  # call target -> [(key, parameter, positional index)]
        own = {}  # def or lambda node -> {parameter: key, or None if required}
        for d in index.def_of.values():
            args = d.node.args
            positional = args.posonlyargs + args.args
            bound = d.cls is not None and positional and positional[0].arg in ("self", "cls")
            pairs = [
                (arg, default, i - bound)
                for i, (arg, default) in enumerate(
                    zip(positional, [None] * (len(positional) - len(args.defaults)) + args.defaults)
                )
            ] + [(arg, default, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)]
            params = own[d.node] = {}
            for arg, default, position in pairs:
                params[arg.arg] = None
                if default is None or not d.package:
                    continue
                key = params[arg.arg] = f"{d.module.removeprefix('repro.')}.{d.qualname}({arg.arg})"
                defaults[key] = ast.unparse(default)
                for target in index.targets_of(d):
                    callees.setdefault(target, []).append((key, arg.arg, position))

        set_, forwards = set(), []
        for call in index.calls:
            keywords = index.keywords(call)
            if isinstance(call.caller, ast.Lambda):
                caller = dict.fromkeys(a.arg for a in call.caller.args.args)
            else:
                caller = own.get(call.caller, {})
            for target in call.targets:
                for key, param, position in callees.get(target, []):
                    if keywords is None or call.star or (
                        position is not None and len(call.args) > position
                    ):
                        set_.add(key)
                        continue
                    value = keywords.get(param)
                    if value is None or ast.unparse(value) == defaults[key]:
                        continue
                    if isinstance(value, ast.Name) and value.id == param and param in caller:
                        forwards.append((key, caller[param]))
                    else:
                        set_.add(key)
        while newly := {k for k, outer in forwards if outer is None or outer in set_} - set_:
            set_ |= newly
        assert set(defaults) - set_ == set(_NEVER_SET_PARAMETERS)
