"""Seeded fuzzing of `verify` on valid certificates: the fermat-cubic
witness, the not_isolated rejection of x^2*y and the no_isolating_slice
rejection of x^3 + x*y^3 + z^2.

The verifier treats a certificate as untrusted input.  Every mutation here
(a deleted field, a value swapped for one of another type, a flipped byte)
must end in exit 0 (still valid), 2 (not a certificate document) or 4
(invalid): never a traceback, and never a hang.  A certificate whose
verdict or rejection reason is swapped for another must end in 2 or 4, and
so must one whose isolated flag, Milnor number or rejection message is not
the one the builder writes.
"""

import copy
import functools
import json
import random
import signal
import time

import pytest

from nakai_forge.cli import BUILTIN_CORPUS, main as cli_main
from nakai_forge.exprio import parse_poly, write_certificate
from nakai_forge.pipeline import INPUT_REJECTED, RESOURCE_EXHAUSTED, WITNESS_FOUND, build_witness

SEED = 70707
MUTATIONS = 120  # per kind
SECONDS_PER_VERIFY = 10  # a fermat-cubic certificate verifies in ~10 ms
SWAPS = (7, -1, 2.5, "y1", "", None, True, [], {}, ["y1"], {"y1": 1}, 10**40)
# values for the fields of the isolation records (a prime and rows of
# entries modulo it): out-of-range, composite and non-integer primes, and
# entries that are negative, at least the prime, fractional or of no pure power
ISOLATION_VALUES = (2147483649, 2**64, 2**64 + 13, 0, -7, True, 4, "2147483647", "-1", "1/2",
                    "2147483647*x", "x*y", "y2*y3", 2147483646)
ISOLATION_RECORDS = (("isolation",), ("obstruction", "restriction_isolation"))


INPUTS = {"fermat-cubic": "x^3 + y^3 + z^3", "not-isolated": "x^2*y", "no-isolating-slice": "x^3 + x*y^3 + z^2"}


@functools.cache
def _certificate(text: str) -> bytes:
    variables = ["x", "y", "z"]
    return write_certificate(build_witness(parse_poly(text, variables), variables).document)


@pytest.fixture(scope="module", params=list(INPUTS))
def certificate(request) -> bytes:
    return _certificate(INPUTS[request.param])


@pytest.fixture(scope="module")
def fermat_certificate() -> bytes:
    return _certificate(INPUTS["fermat-cubic"])


def _containers(node, path=()):
    """Every dict and list in the document with its path, the root first."""
    yield path, node
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        if isinstance(child, (dict, list)):
            yield from _containers(child, path + (key,))


def _slots(doc):
    """(container, key) for every value in the document."""
    out = []
    for _, node in _containers(doc):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        out.extend((node, k) for k in keys)
    return out


def _delete_field(rng, doc):
    node, key = rng.choice(_slots(doc))
    del node[key]


def _swap_type(rng, doc):
    node, key = rng.choice(_slots(doc))
    node[key] = rng.choice([v for v in SWAPS if type(v) is not type(node[key])])


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout("verify did not finish in time")


def _verify_exit(data: bytes, tmp_path) -> int:
    path = tmp_path / "cert.json"
    path.write_bytes(data)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(SECONDS_PER_VERIFY)
    try:
        return cli_main(["verify", str(path)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("mutate", [_delete_field, _swap_type], ids=["delete", "type-swap"])
def test_document_mutations(mutate, certificate, tmp_path, capsys):
    rng = random.Random(SEED)
    start = time.perf_counter()
    codes = set()
    for k in range(MUTATIONS):
        doc = json.loads(certificate)
        mutate(rng, doc)
        code = _verify_exit(json.dumps(doc).encode(), tmp_path)
        assert code in (0, 2, 4), (k, code)
        codes.add(code)
    capsys.readouterr()
    assert 4 in codes
    assert time.perf_counter() - start < 60


def test_isolation_field_mutations(fermat_certificate, tmp_path, capsys):
    # the prime or one row entry of an isolation record swapped for a value
    # from ISOLATION_VALUES: every exit is 0, 2 or 4, and 4 occurs
    rng = random.Random(SEED)
    start = time.perf_counter()
    codes = set()
    for k in range(MUTATIONS):
        doc = json.loads(fermat_certificate)
        record = doc["membership_tests"]
        for key in rng.choice(ISOLATION_RECORDS):
            record = record[key]
        row = rng.choice(record["cofactors"])
        node, key = rng.choice([(record, "prime"), (record["cofactors"], 0), (row, rng.randrange(len(row)))])
        node[key] = rng.choice(ISOLATION_VALUES)
        code = _verify_exit(json.dumps(doc).encode(), tmp_path)
        assert code in (0, 2, 4), (k, code)
        codes.add(code)
    capsys.readouterr()
    assert 4 in codes
    assert time.perf_counter() - start < 60


# the fields the verifier compares with what the builder writes; a witness
# has no rejection message
FACTS = [(name, path) for name in INPUTS
         for path in (("isolated",), ("milnor_number",), ("rejection", "message"))
         if name != "fermat-cubic" or path[0] != "rejection"]
_ABSENT = object()


def _variants(value):
    """Every value of SWAPS, false, 8.0 and a near miss of ``value`` itself
    (one more, one character more) that differs from it as written, and
    _ABSENT for a deletion when ``value`` is present."""
    near = (value + 1,) if type(value) is int else (value + ".",) if isinstance(value, str) else ()
    out = [v for v in SWAPS + (False, 8.0) + near if value is _ABSENT or repr(v) != repr(value)]
    return out + ([] if value is _ABSENT else [_ABSENT])


@pytest.mark.parametrize("name, path", FACTS, ids=[f"{n}-{p[-1]}" for n, p in FACTS])
def test_isolation_facts_and_message_mutations(name, path, tmp_path, capsys):
    # input.isolated, input.milnor_number and input.rejection.message set to
    # any other value, or deleted: every one is refused
    built = json.loads(_certificate(INPUTS[name]))
    node = built["input"]
    for key in path[:-1]:
        node = node[key]
    variants = _variants(node.get(path[-1], _ABSENT))
    for value in variants:
        doc = copy.deepcopy(built)
        node = doc["input"]
        for key in path[:-1]:
            node = node[key]
        if value is _ABSENT:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        assert _verify_exit(json.dumps(doc).encode(), tmp_path) == 4, value
    capsys.readouterr()
    assert len(variants) >= len(SWAPS)


def test_byte_flips(certificate, tmp_path, capsys):
    rng = random.Random(SEED)
    start = time.perf_counter()
    codes = set()
    for k in range(MUTATIONS):
        data = bytearray(certificate)
        pos = rng.randrange(len(data))
        data[pos] ^= 1 << rng.randrange(8)
        code = _verify_exit(bytes(data), tmp_path)
        assert code in (0, 2, 4), (k, pos, code)
        codes.add(code)
    capsys.readouterr()
    assert {2, 4} <= codes
    assert time.perf_counter() - start < 60


@pytest.mark.parametrize("path, value", [
    (("membership_tests",), 7),
    (("membership_tests", "obstruction"), "y1"),
    (("membership_tests", "isolation"), 7),
    (("lifted_operator", "scales_f_by"), None),
    (("change_of_coordinates", "slice_coefficients"), ["1e999999999", "0", "0"]),
    (("input", "variables"), 7),
    (("input",), []),
    (("membership_tests", "isolation", "prime"), 2147483649),
    (("membership_tests", "isolation", "prime"), 2**64),
    (("membership_tests", "isolation", "prime"), 0),
    (("membership_tests", "isolation", "prime"), -7),
    (("membership_tests", "isolation", "prime"), True),
    (("membership_tests", "isolation", "prime"), "2147483647"),
    (("membership_tests", "isolation", "prime"), None),
    (("membership_tests", "isolation", "cofactors"), 7),
    (("membership_tests", "isolation", "cofactors"), [["1"]]),
    (("membership_tests", "isolation", "cofactors", 0), "1431655765"),
    (("membership_tests", "isolation", "cofactors", 0, 0), "-1"),
    (("membership_tests", "isolation", "cofactors", 0, 0), "2147483647"),
    (("membership_tests", "isolation", "cofactors", 0, 0), "1/2"),
    (("membership_tests", "isolation", "cofactors", 0, 0), "1431655765*y"),
    (("membership_tests", "isolation", "cofactors", 0, 0), 7),
    (("membership_tests", "obstruction", "restriction_isolation", "prime"), 4),
    (("membership_tests", "obstruction", "restriction_isolation", "cofactors", 1, 1), "2147483648"),
    (("membership_tests", "obstruction", "restriction_isolation", "cofactors", 1), ["0", "1", "0"]),
])
def test_wrong_types_exit_4(path, value, fermat_certificate, tmp_path, capsys):
    # a wrong type anywhere, a rational with an exponent, and a prime or row
    # entry of an isolation record out of its range, is invalid data
    doc = json.loads(fermat_certificate)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    assert _verify_exit(json.dumps(doc).encode(), tmp_path) == 4
    assert "INVALID" in capsys.readouterr().out


def test_huge_slice_power_exits_4(fermat_certificate, tmp_path, capsys):
    # the slice y1 = x + y makes g = f(x(y)) expand (y1 - y2)^100000; the
    # verifier refuses that power before expanding it
    doc = json.loads(fermat_certificate)
    doc["input"]["polynomial"] = "x^100000 + y^100000 + z^100000"
    doc["change_of_coordinates"]["slice_coefficients"] = ["1", "1", "0"]
    start = time.perf_counter()
    assert _verify_exit(json.dumps(doc).encode(), tmp_path) == 4
    assert time.perf_counter() - start < 5
    assert "power 100000 of slice row 1 is too large to expand" in capsys.readouterr().out


REASONS = ("zero_polynomial", "not_homogeneous", "degree_too_small", "too_few_variables", "dimension_cap",
           "not_isolated", "no_isolating_slice")
XYZ = ["x", "y", "z"]
# a witness and one rejection for each reason: (input, variables)
SWAP_INPUTS = {
    "fermat-cubic": next((text, names) for key, text, names, _ in BUILTIN_CORPUS if key == "fermat-cubic"),
    "zero_polynomial": ("0", XYZ),
    "not_homogeneous": ("x*y + z^3", XYZ),
    "degree_too_small": ("x + y", XYZ[:2]),
    "too_few_variables": ("x^3 + y^3", XYZ[:2]),
    "dimension_cap": (" + ".join(f"x{i}^3" for i in range(1, 8)), [f"x{i}" for i in range(1, 8)]),
    "not_isolated": ("x^2*y + z^3", XYZ),
    "no_isolating_slice": ("x^3 + x*y^3 + z^2", XYZ),
}


@pytest.mark.parametrize("name", list(SWAP_INPUTS))
def test_verdict_and_reason_swaps(name, tmp_path, capsys):
    # every verdict, and under INPUT_REJECTED every reason: only the
    # certificate as built verifies; a rejection naming a gate other than
    # the first one the input fails (x + y as too_few_variables) does not
    text, names = SWAP_INPUTS[name]
    doc = json.loads(write_certificate(build_witness(parse_poly(text, names), names).document))
    built = (doc["verdict"], doc["input"].get("rejection", {}).get("reason"))
    assert built == ((WITNESS_FOUND, None) if name == "fermat-cubic" else (INPUT_REJECTED, name))
    for verdict in (WITNESS_FOUND, INPUT_REJECTED, RESOURCE_EXHAUSTED):
        for reason in REASONS if verdict == INPUT_REJECTED else (built[1],):
            forged = copy.deepcopy(doc)
            forged["verdict"] = verdict
            if reason is not None:
                forged["input"].setdefault("rejection", {"message": "forged"})["reason"] = reason
            code = _verify_exit(json.dumps(forged).encode(), tmp_path)
            assert (code == 0) if (verdict, reason) == built else (code in (2, 4)), (verdict, reason, code)
    capsys.readouterr()
