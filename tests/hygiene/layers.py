"""A lower layer loads no upper one."""

from tests.hygiene.shipped import _fresh_interpreter


class LayersLoad:
    def test_lower_layers_load_no_upper_layer(self):
        """A layer loads only the layers below it (DESIGN.md §3: sim → net →
        tcp → linux → cdn → core), in a fresh interpreter:
        ``import repro.tcp.socket`` loads nothing from ``cdn``, ``core``,
        the policy zoo, the fault injector, the harnesses or the CLI, and
        ``import repro.sim.kernel`` nothing above ``net`` and ``obs``.
        """
        probe = (
            "import importlib, sys\n"
            "importlib.import_module(sys.argv[1])\n"
            "print(' '.join(sorted(name for name in sys.modules\n"
            "    if name == 'repro' or name.startswith('repro.'))))\n"
        )

        def layers(loaded, upper):
            return {name for name in loaded if name.split(".")[:2][-1] in upper}

        loaded = _fresh_interpreter(probe, "repro.tcp.socket").split()
        upper = ("cdn", "core", "policy", "faults", "experiments", "cli")
        assert layers(loaded, upper) == set()
        loaded = _fresh_interpreter(probe, "repro.sim.kernel").split()
        assert layers(loaded, upper + ("tcp", "linux")) == set()
        assert len(loaded) <= 25, loaded
