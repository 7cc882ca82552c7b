"""``read_sections`` against its reference, ``configparser.ConfigParser(
interpolation=None)``: the same sections for every file the reference
reads, and the same one ``error:`` line, exit 2, for every file it refuses."""

import configparser
import contextlib
import io
import re
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ftqcost.cli import main
from ftqcost.config import build_config, read_sections
from ftqcost.errors import ConfigError

README = Path(__file__).resolve().parent.parent / "README.md"
BUNDLED = resources.files("ftqcost.data").joinpath("fh_L30_L2parallel.cfg").read_text()


def readme_config() -> str:
    """The ``ini`` block under the README's "Config format" heading."""
    section = README.read_text().split("## Config format", 1)[1]
    return re.search(r"```ini\n(.*?)```", section, re.S).group(1)


def reference(path: str):
    """``{name: dict(parser[name])}`` of the file, or the one-line text of
    the error the reference raises reading it."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        assert parser.read(path) == [path]
    except (configparser.Error, UnicodeDecodeError) as exc:
        return " ".join(str(exc).split())
    return {name: dict(parser[name]) for name in parser.sections()}


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("ini") / "drawn.cfg")


# Few names, so that sections and keys repeat; mixed case, inner spaces, a
# bracket inside a header and an empty key among them.
SECTIONS = st.sampled_from(["physical", "qec", "DEFAULT", "default", "a b", "x]y", " qec"])
KEYS = st.sampled_from(["p", "P", "t_Evol", "T_EVOL", "a b", "é", ""])
TEXT = st.text(
    alphabet=st.sampled_from([*"ab1e-3.%()#;=:[] \t", "\x0c", "\x85", "\xa0", "\u2028", "é"]),
    max_size=10,
)
INDENT = st.sampled_from(["", " ", "  ", "\t", " \t"])
SPACE = st.sampled_from(["", " ", "\t", "  "])
OPTION = st.tuples(INDENT, KEYS, SPACE, st.sampled_from(["=", ":"]), SPACE, TEXT)
LINES = st.one_of(
    st.tuples(INDENT, st.just("["), SECTIONS, st.just("]"), st.sampled_from(["", " ", " x"])),
    OPTION,
    OPTION,
    st.tuples(INDENT, st.sampled_from(["#", ";"]), TEXT),
    st.tuples(st.sampled_from(["", " ", "\t", "\x0c"])),
    st.tuples(st.sampled_from([" ", "  ", "\t"]), TEXT),
    st.tuples(INDENT, TEXT),
).map("".join)


@st.composite
def ini_bytes(draw) -> bytes:
    """INI text with drawn line ends, as bytes, undecodable ones at times."""
    first = draw(st.sampled_from([[], ["[physical]"], ["[physical]"], ["[DEFAULT]"]]))
    lines = first + draw(st.lists(LINES, max_size=12))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    data = text[:-1].encode() if draw(st.booleans()) and text else text.encode()
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82"])) + data[at:]
    return data


def run_estimate(path: str):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["estimate", path])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(ini_bytes())
@example(readme_config().encode())
@example(b"p = 1e-3\n")
@example(b"[physical\np = 1e-3\n")
@example(BUNDLED.replace("T_evol = 300", "T_evol = %(x)s").encode())
@example((BUNDLED + "\n[physical]\np = 1e-3\n").encode())
@example(BUNDLED.replace("p = 1e-3", "p = 1e-3\np = 2e-3").encode())
@example(b"\xff\xfe[physical]\n")
@example(b"[DEFAULT]\nE = 0.1\n[qec]\nd_max: 9\n  more\n\n\n  # note\n[physical]\nE = 1\n")
@example(b"[DEFAULT]\nk = 1\n[DEFAULT]\nk = 2\n")
@example(b"[qec]\nE: 0.1=x\nd_max = a:b\n")
@example(b"[qec]\n= 1\nno delimiter\n\tindented = 2\r\n[qec]\r")
def test_read_sections_matches_configparser(config_path, data):
    Path(config_path).write_bytes(data)
    expected = reference(config_path)
    if isinstance(expected, dict):
        got = read_sections(config_path)
        assert [(name, list(f.items())) for name, f in got.items()] == [
            (name, list(f.items())) for name, f in expected.items()
        ]
        return
    with pytest.raises(ConfigError) as raised:
        read_sections(config_path)
    assert raised.value.problems == [f"{config_path}: {expected}"]
    assert run_estimate(config_path) == (2, "", f"error: {config_path}: {expected}\n")


@pytest.mark.parametrize("name", ["missing.cfg", "."])
def test_an_unopenable_path_exits_2(tmp_path, name):
    path = str(tmp_path / name)
    assert configparser.ConfigParser().read(path) == []
    message = f"error: config file not found or unreadable: {path}\n"
    assert run_estimate(path) == (2, "", message)


def test_the_readme_config_example_builds(tmp_path):
    path = tmp_path / "readme.cfg"
    path.write_text(readme_config())
    config = build_config(read_sections(str(path)))
    assert (config.scheme, config.inst.l_side, config.assume.p) == ("plaq_L2", 30, 1e-3)
