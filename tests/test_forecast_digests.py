"""Forecast digests pinned in tier-1.

The smoke variant (8 sensors, 10 measured rounds) of four roundbench
workloads is driven through roundbench's own ``loop.Driver`` — imported
read-only, as ``tools/profile_round.py`` does — and the sha256 over every
forecast's ``mean`` / ``std`` bits (``loop.forecast_digest``, warm-up
rounds included) is compared with ``forecast_digests.json`` beside this
file.  A change that should not move a forecast must leave every digest
equal; a change that moves them on purpose edits the file and names the
old and new digests in ``CHANGES.md``.  ``fleet-stream-proc`` is left
out: it runs ``fleet-stream``'s inputs through the process engine, and
roundbench's own ``digest_equals_inline`` check already ties the two.

The digests are pinned on CPython 3.11.  The float sums of other minor
versions may round differently (3.12's builtin ``sum()`` is compensated),
so there the test prints what it computes and asserts only that two runs
agree.
"""

import dataclasses
import hashlib
import json
import math
import pathlib
import sys
import tempfile

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PINNED = pathlib.Path(__file__).with_name("forecast_digests.json")
SEED = 2015
WORKLOADS = ("fleet-stream", "deep-search", "gp-forecast", "churn-faulted")
PINNED_ON = (3, 11)


@pytest.fixture(scope="module")
def roundbench():
    """roundbench's ``loop`` and ``workloads`` modules, unmodified."""
    path = str(ROOT / "benchmarks" / "roundbench")
    if path not in sys.path:
        sys.path.insert(0, path)
    import loop
    import workloads

    return loop, workloads


def smoke_records(roundbench, name):
    """Every round's record of one smoke run: warm-ups, then the
    measured rounds with their maintenance (churn, restore cycles)."""
    loop, workloads = roundbench
    workload = workloads.smoke_variant(workloads.WORKLOADS[name])
    with tempfile.TemporaryDirectory(prefix="digest-pin-") as tmp:
        driver = loop.Driver(
            workload, workloads.generate(workload, SEED), SEED, pathlib.Path(tmp)
        )
        try:
            driver.setup()
            records = list(driver.warmup_records)
            for done in range(1, workload.min_rounds + 1):
                records.append(driver.round())
                driver.maintenance(done)
        finally:
            driver.close()
    return records


def digest(roundbench, records):
    loop, _ = roundbench
    return hashlib.sha256("".join(loop.forecast_digest(records)).encode()).hexdigest()


@pytest.fixture(scope="module")
def computed(roundbench):
    """``{workload: (records, digest)}``, each workload driven once."""
    found = {}
    for name in WORKLOADS:
        records = smoke_records(roundbench, name)
        found[name] = records, digest(roundbench, records)
    return found


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_digest(roundbench, computed, name):
    records, found = computed[name]
    assert all(record.batch for record in records), name
    print(f"{name} seed={SEED}: {found}")
    if sys.version_info[:2] == PINNED_ON:
        assert found == json.loads(PINNED.read_text())[name], name
    else:
        assert digest(roundbench, smoke_records(roundbench, name)) == found, name


def test_one_ulp_in_one_forecast_moves_the_digest(roundbench, computed):
    """Negative control: the digest sees the last bit of one forecast."""
    records, found = computed["deep-search"]
    record = records[-1]
    sid = sorted(record.batch)[0]
    forecast = record.batch[sid]
    nudged = dataclasses.replace(
        forecast, mean=math.nextafter(forecast.mean, math.inf)
    )
    moved = records[:-1] + [
        dataclasses.replace(record, batch={**record.batch, sid: nudged})
    ]
    assert digest(roundbench, moved) != found

