"""The shared base of the hand-written immutable records."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

import repro.cli  # noqa: F401  (loads every module that defines a record)
from repro.linux.route import RouteEntry
from repro.net.addresses import Prefix
from repro.records import Frozen


def _fields(entry):
    return entry.prefix, entry.initcwnd, entry.initrwnd, entry.created_at


def test_a_frozen_record_refuses_writes():
    entry = RouteEntry(Prefix.parse("10.1.0.0/16"), initcwnd=40)
    with pytest.raises(FrozenInstanceError, match="initcwnd"):
        entry.initcwnd = 1
    with pytest.raises(FrozenInstanceError, match="initcwnd"):
        del entry.initcwnd
    assert entry.initcwnd == 40


def test_a_frozen_record_pickles_and_copies():
    entry = RouteEntry(Prefix.parse("10.1.0.0/16"), 40, 120, 3.5)
    clones = [pickle.loads(pickle.dumps(entry, protocol)) for protocol in (2, 5)]
    clones += [copy.copy(entry), copy.deepcopy(entry)]
    for clone in clones:
        assert type(clone) is RouteEntry
        assert _fields(clone) == _fields(entry)


def test_every_frozen_record_is_slotted():
    pending, records = [Frozen], []
    while pending:
        cls = pending.pop()
        pending += cls.__subclasses__()
        records.append(cls)
    assert len(records) > 10
    for cls in records:
        assert "__slots__" in vars(cls), cls
        assert "__dict__" not in dir(cls), cls
