"""Every map of ``hard_maps.HARD_MAPS`` has the exact tag and the CLI outcome
the table records."""

import pytest

from shadowosc.cli import main

from hard_maps import HARD_MAPS, exact_tag

by_name = pytest.mark.parametrize("entry", HARD_MAPS, ids=[m.name for m in HARD_MAPS])


@by_name
def test_exact_tag_is_the_sign_of_the_stored_entries_discriminant(entry):
    assert exact_tag(entry.stored()) == entry.exact_tag


@by_name
def test_hamiltonian_outcome(capsys, entry):
    code = main(["hamiltonian", *entry.flags, "--m-min", "0", "--m-max", "0"])
    out, err = capsys.readouterr()
    assert code == entry.exit
    if code:
        assert (out, err) == ("", entry.outcome + "\n")
        return
    header, row = out.splitlines()
    if entry.outcome == "iii-b":
        assert row.startswith("# case iii-b: ")
        return
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["case"] == entry.outcome
    if entry.c_pq is not None:
        assert cells["cC_re"] == entry.c_pq
