"""Cap settings read from the environment: a value that is not a positive
integer is an input error (exit 2 with a message), never a traceback or a
cap that every run exceeds."""

import pytest

from exactmdp import cli, docio, limits
from exactmdp.corpus import build_example

CAP_VARIABLES = (
    ("EXACTMDP_ENUMERATION_CAP", limits.enumeration_cap),
    ("EXACTMDP_SYMBOLIC_HORIZON_CAP", limits.symbolic_horizon_cap),
    ("EXACTMDP_PREFIX_CAP", limits.prefix_cap),
    ("EXACTMDP_PIECE_CAP", limits.piece_cap),
)
BAD_VALUES = ("abc", "0", "-3")
# int() alone reads each of these as a positive integer
NOT_ASCII_VALUES = ("１０", "1_000", "٣", "1 0")


@pytest.mark.parametrize("raw", BAD_VALUES)
@pytest.mark.parametrize("name, read", CAP_VARIABLES)
def test_bad_setting_raises(monkeypatch, name, read, raw):
    monkeypatch.setenv(name, raw)
    with pytest.raises(limits.CapSettingError, match=name):
        read()


@pytest.mark.parametrize("name, read", CAP_VARIABLES)
def test_positive_setting_and_default(monkeypatch, name, read):
    monkeypatch.delenv(name, raising=False)
    assert read() >= 1
    monkeypatch.setenv(name, "7")
    assert read() == 7


@pytest.mark.parametrize("raw", BAD_VALUES)
def test_cli_exits_2_on_bad_enumeration_cap(monkeypatch, capsys, tmp_path, raw):
    path = tmp_path / "model.json"
    mdp = build_example("ex1").mdp
    path.write_text(docio.dumps_document(docio.document_from_mdp(mdp)))
    monkeypatch.setenv("EXACTMDP_ENUMERATION_CAP", raw)
    code = cli.main(["solve", str(path), "--alpha", "1/2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"error: EXACTMDP_ENUMERATION_CAP={raw!r} is not a positive integer\n"
    )


@pytest.mark.parametrize("raw", NOT_ASCII_VALUES)
@pytest.mark.parametrize("name, read", CAP_VARIABLES)
def test_setting_needs_ascii_digits(monkeypatch, name, read, raw):
    monkeypatch.setenv(name, raw)
    with pytest.raises(limits.CapSettingError, match=name):
        read()


@pytest.mark.parametrize("raw", NOT_ASCII_VALUES)
def test_cli_exits_2_on_non_ascii_cap(monkeypatch, capsys, tmp_path, raw):
    path = tmp_path / "model.json"
    path.write_text(docio.dumps_document(docio.document_from_mdp(build_example("ex1").mdp)))
    monkeypatch.setenv("EXACTMDP_ENUMERATION_CAP", raw)
    assert cli.main(["solve", str(path), "--alpha", "1/2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: EXACTMDP_ENUMERATION_CAP={raw!r} is not a positive integer\n"
    )


@pytest.mark.parametrize("raw, value", [(" 7 ", 7), ("+7", 7), ("007", 7)])
def test_padded_and_signed_settings_still_read(monkeypatch, raw, value):
    monkeypatch.setenv("EXACTMDP_PIECE_CAP", raw)
    assert limits.piece_cap() == value
