"""The CLI loads only the standard library and ``repro``."""

from tests.hygiene.shipped import _fresh_interpreter


class StdlibOnly:
    def test_importing_the_cli_loads_only_the_stdlib_and_repro(self):
        """``pyproject.toml`` declares no dependencies; hold the CLI to it.

        Run in a fresh interpreter, diffing ``sys.modules`` around the
        import so whatever ``site`` preloads is not counted.
        """
        probe = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import repro.cli\n"
            "loaded = {name.split('.')[0] for name in set(sys.modules) - before}\n"
            "allowed = sys.stdlib_module_names | {'repro'}\n"
            "print(' '.join(sorted(loaded - allowed)))\n"
        )
        assert _fresh_interpreter(probe).strip() == ""
