import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "artifact_digests", Path(__file__).resolve().parents[1] / "scripts" / "artifact_digests.py")
script = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(script)


def digests_of(seeds=(7, 8)):
    """A digest dict as `run_matrix` writes it, with the worker pair agreeing everywhere."""
    out = {}
    for seed in seeds:
        for label, *_ in script.MATRIX:
            out[f"{seed}/{label}/exit_code"] = 0
            for name in ("moments.csv", "manifest.json"):
                same = label if label not in script.WORKER_PAIR else "thermostat"
                out[f"{seed}/{label}/{name}"] = f"{seed}-{same}-{name}"
    return out


def test_worker_pair_is_in_the_matrix():
    commands = {label: (command, config) for label, command, config, _ in script.MATRIX}
    one, two = script.WORKER_PAIR
    assert commands[one] == commands[two]


def test_worker_mismatches_empty_when_worker_counts_agree():
    assert script.worker_mismatches(digests_of()) == []


def test_worker_mismatches_names_each_tampered_entry():
    one, two = script.WORKER_PAIR
    digests = digests_of()
    digests[f"8/{two}/moments.csv"] = "tampered"
    digests[f"7/{one}/exit_code"] = 1
    digests[f"7/{two}/snapshots.bin"] = "only-one-side"
    digests["7/entropy_1d/entropy.csv"] = "other labels are not compared"
    found = script.worker_mismatches(digests)
    assert len(found) == 3
    assert found[0].startswith("7/exit_code:") and found[1].startswith("7/snapshots.bin:")
    assert found[2].startswith("8/moments.csv:") and "tampered" in found[2]
