"""Experiment harnesses: one per data-bearing figure/table in the paper.

Every module exposes ``run(...)`` returning a result object with a
``report()`` method that prints the same rows/series the paper reports.
``repro.experiments.registry`` maps experiment ids (``fig02`` ... ``fig16``,
``table2``, ``edge_cases``) to their runners; importing it loads every
harness, so the package itself imports nothing.
"""
