"""``repro.analysis.lint`` — determinism & sim-invariant static analysis.

An AST-based analyzer with codebase-specific rules, run as
``python -m repro lint [paths]``:

========  ==============================================================
DET001    wall-clock / global-RNG reads in simulation code
DET002    set/dict iteration feeding order-sensitive sinks
DET003    ordering by object identity (``id()`` keys, ``is`` tie-breaks)
FLT001    bare ``sum()``/``+=`` float accumulation (use ``math.fsum``)
SIM001    kernel-private field pokes and ``time.sleep`` in sim code
SLOT001   ``self`` attributes missing from a class's ``__slots__``
OBS001    metric/trace/span taxonomy drift against ARCHITECTURE.md
========  ==============================================================

Each rule reads one file at a time (OBS001 also compares what the
scanned files emit against the ARCHITECTURE.md tables once all are
seen); nothing is resolved across modules.  Whole-program properties —
hash-order independence, fork/merge safety — are owned by tier-1 tests,
named in the "Static analysis" section of ``docs/ARCHITECTURE.md``,
which also has a motivating example per rule.  The one suppression
layer is an inline ``# lint: ignore[CODE]`` comment
(:mod:`repro.analysis.lint.engine`).
"""
