"""Every CLI option is used outside the tests."""

import repro


#: Where a CLI option counts as used: the example scripts, the Makefile,
#: the CI workflows and the user documentation.
_OPTION_USE_GLOBS = (
    "examples/*.py",
    "Makefile",
    ".github/workflows/*.yml",
    "README.md",
    "docs/**/*.md",
)


#: ``verb --option`` pairs that no file of ``_OPTION_USE_GLOBS`` uses,
#: each kept for the reason given.
_UNUSED_OPTIONS: dict[str, str] = {}


class CliOptionsUsed:
    def test_every_cli_option_is_used_outside_the_tests(self):
        """Every option of every verb appears on a ``repro <verb> ...``
        command line (a trailing backslash continues it) in an example, the
        Makefile, a CI workflow, the README or ``docs/``.  An option only
        tests pass is one nobody is shown: delete it, or show it in use.
        """
        import argparse
        import re
        from pathlib import Path

        from repro.cli import _build_parser

        repo = Path(repro.__file__).parent.parent.parent
        (verbs,) = [
            action
            for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        options = {
            f"{verb} {option}"
            for verb, parser in verbs.choices.items()
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
            for option in action.option_strings
        }
        used = set()
        for pattern in _OPTION_USE_GLOBS:
            for path in repo.glob(pattern):
                text = path.read_text().replace("\\\n", " ")
                for verb, rest in re.findall(r"\brepro (\w+)(.*)", text):
                    used.update(f"{verb} {option}" for option in re.findall(r"--[\w-]+", rest))
        assert options - used == set(_UNUSED_OPTIONS)
