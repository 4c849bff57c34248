"""Self-test of the byte ledger on a 3-command sample of its list.

Run from the repository root with ``python3 -m pytest tools``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import ledger  # noqa: E402
from cpelab import cli  # noqa: E402

SAMPLE = ("simulate/8x8x5/LocalGamma1/random_smooth",
          "resolvent/12x16x9/37i/manufactured",
          "hostile/random_at_zero")


def sample(tmp_path):
    cmds = dict(ledger.commands(str(tmp_path / "work")))
    return [(cid, cmds[cid]) for cid in SAMPLE]


def test_two_ledgers_of_one_tree_are_equal(tmp_path):
    cmds = sample(tmp_path)
    a, b = str(tmp_path / "a.ledger"), str(tmp_path / "b.ledger")
    ledger.write(a, cmds)
    ledger.write(b, cmds)
    assert ledger.compare(a, b) == []
    entries = ledger.read(a)
    assert {cid: code for cid, (code, _) in entries.items()} == {
        SAMPLE[0]: "0", SAMPLE[1]: "0", SAMPLE[2]: "6"}
    assert set(entries[SAMPLE[1]][1]) == {"V.npy", "zeta.npy", "summary.json"}
    assert set(entries[SAMPLE[2]][1]) == {ledger.STDERR}
    assert ledger.main(["--compare", a, b]) == 0


def test_a_one_byte_change_is_reported(tmp_path, monkeypatch):
    cmds = sample(tmp_path)
    a, b = str(tmp_path / "a.ledger"), str(tmp_path / "b.ledger")
    ledger.write(a, cmds)
    main = cli.main

    def main_with_a_flipped_bit(argv):
        code = main(argv)
        if argv[1].endswith(os.path.join("37i", "manufactured.json")):
            path = os.path.join(argv[-1], "zeta.npy")
            with open(path, "r+b") as fh:
                # the lowest byte of the real part of the last entry
                fh.seek(-16, os.SEEK_END)
                byte = fh.read(1)[0]
                fh.seek(-16, os.SEEK_END)
                fh.write(bytes([byte ^ 1]))
        return code

    monkeypatch.setattr(cli, "main", main_with_a_flipped_bit)
    ledger.write(b, cmds)
    found = ledger.compare(a, b)
    assert len(found) == 1
    assert found[0].startswith(f"{SAMPLE[1]} zeta.npy: bytes differ; "
                               "largest difference ")
    rel = float(found[0].split("largest difference ")[1].split()[0])
    assert 0 < rel < 1e-12
    assert ledger.main(["--compare", a, b]) == 1
