"""Argv fuzzing of the CLI exit contract.

Any argv ends in exit 0, 1 or 2. Exit 1 means an empty stdout and a JSON
error on stderr that validates against schemas/error.json; a warning
raised on the way would reach stderr ahead of that JSON, so it breaks the
contract too. A JSON document on stdout at exit 0 is strict JSON, with no
NaN or Infinity, and valid against its subcommand's bundled schema.

Values come from a fixed pool of small, malformed, non-finite,
non-ASCII-digit and beyond-float inputs. Flags that size the work (tokens,
grid cells, threads, ring devices, searched lengths) draw only values up to
64, or a value just beyond the flag's size bound, which every argv rejects
before allocating anything, so no example allocates by size. No argv
carries --endpoint and LONGCTX_ENDPOINT is unset, so nothing is sent;
flags that name a file to write are left out. recipe --file also draws the
golden manifest, copies of it that break the manifest schema in one field
or hold a token budget beyond float64, and a file of 200,000 nested lists,
deeper than json can decode.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings
from importlib import resources
from pathlib import Path
from unittest import mock

import jsonschema
from hypothesis import example, given, settings, strategies as st

from longctx.cli import MAX_SCHEDULE_DEVICES, dispatch
from longctx.memplan import MAX_SEARCH_SEQ_LEN
from longctx.niah import MAX_CONCURRENCY, MAX_HAYSTACK_TOKENS
from longctx.rope import MAX_HEAD_DIM

SMALL = ("1", "2", "3", "8", "64", "-1", "0", "abc", "", "nan", "inf")
# "²³" and "٣" pass str.isdigit; int() reads "٣" as 3 but rejects "²³".
POOL = SMALL + ("1e400", str(10**400), str(2**1100), "²³", "٣")

ANY = st.sampled_from(POOL)
SIZE = st.sampled_from(SMALL)
FEW = st.sampled_from(("1", "2", "3", "-1", "0", "abc"))
CONCURRENCY = st.sampled_from(("1", "2", "3", "-1", "0", "abc", str(MAX_CONCURRENCY + 1)))
FLAG = None  # a store_true flag takes no value
# Just beyond a size bound. 2**17 tokens of Q/K/V plus one oracle strip pass
# ringsim's MAX_WORKING_SET_BYTES at any head_dim >= 1, whatever the mesh.
SEQ_LEN = st.sampled_from(SMALL + (str(2**17),))
SEARCH_SEQ_LEN = st.sampled_from(SMALL + (str(MAX_SEARCH_SEQ_LEN + 1),))
DEVICES = st.sampled_from(POOL + (str(2 * MAX_SCHEDULE_DEVICES),))
TOKENS = st.sampled_from(SMALL + (str(MAX_HAYSTACK_TOKENS + 1),))
HEAD_DIM = st.sampled_from(POOL + (str(MAX_HEAD_DIM + 1), str(MAX_HEAD_DIM + 2)))


def _write_manifests(directory: Path) -> tuple[str, ...]:
    """The golden manifest, copies with one field of phase 0 (or the phase list) replaced, and deep nesting."""
    golden = (Path(__file__).parent / "data" / "megabeam_manifest.json").read_text(encoding="utf-8")
    edits = {
        "golden": {},
        "checkpoint-number": {"checkpoint": 5},
        "phase-id-null": {"phase_id": None},
        "theta-nan": {"rope_theta": float("nan")},
        "budget-beyond-float64": {"token_budget": 10**400},
        "no-phases": None,
    }
    paths = []
    for name, edit in edits.items():
        doc = json.loads(golden)
        if edit is None:
            doc["phases"] = []
        else:
            doc["phases"][0].update(edit)
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(str(path))
    deep = directory / "deeply-nested.json"
    deep.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    return (*paths, str(deep))


_MANIFEST_DIR = tempfile.TemporaryDirectory()
MANIFESTS = st.sampled_from(_write_manifests(Path(_MANIFEST_DIR.name)))


def choice(*valid):
    return st.sampled_from(valid + POOL)


# subcommand -> (required flags, optional flags); "" is a positional argument.
COMMANDS = {
    "census": ({"--limit": ANY}, {}),
    "rope-plan": (
        {"--context-len": ANY, "--candidates": ANY},
        {"--head-dim": HEAD_DIM},
    ),
    "rope-report": (
        {"--theta-base": ANY, "--max-position": ANY},
        {"--head-dim": HEAD_DIM},
    ),
    "ringsim": (
        {"--seq-len": SEQ_LEN, "--devices": DEVICES, "--q-chunk": ANY, "--kv-chunk": ANY},
        {"--seed": ANY, "--head-dim": SIZE, "--segments": ANY},
    ),
    "memplan": (
        {"--devices": ANY, "--seq-len": SIZE, "--q-chunk": ANY, "--kv-chunk": ANY},
        {"--budget": ANY, "--extra-term": st.builds("a={}".format, ANY) | ANY},
    ),
    "memplan-search": (
        {"--devices": ANY, "--seq-len": SEARCH_SEQ_LEN, "--budget": ANY},
        {
            "--min-q-chunk": ANY,
            "--min-kv-chunk": ANY,
            "--max-q-chunk": ANY,
            "--max-kv-chunk": ANY,
            "--power-of-two": FLAG,
        },
    ),
    "niah-gen": (
        {"--haystack-tokens": TOKENS, "--depth": ANY, "--payload": ANY},
        {"--seed": ANY},
    ),
    "niah-score": (
        {"--expected": ANY, "--answer": ANY},
        {"--answer-file": ANY},
    ),
    "niah-grid": (
        {"--lengths": TOKENS, "--depths": ANY},
        {
            "--trials": FEW,
            "--stub": choice("echo", "drop-last", "silent"),
            "--api-shape": ANY,
            "--seed": ANY,
            "--max-tokens": ANY,
            "--concurrency": CONCURRENCY,
            "--format": choice("json", "csv"),
            "--metric": choice("exact", "truncated", "wrong", "empty", "error"),
        },
    ),
    "recipe": (
        {"": choice("show", "validate", "emit")},
        {"--file": MANIFESTS | ANY},
    ),
}


def _words(draw, flag, values):
    if values is FLAG:
        return [flag]
    value = draw(values)
    return [flag, value] if flag else [value]


@st.composite
def argvs(draw):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional = COMMANDS[name]
    argv = [name]
    for flag, values in required.items():
        argv += _words(draw, flag, values)
    extras = st.lists(st.sampled_from(sorted(optional)), max_size=3, unique=True) if optional else st.just([])
    for flag in draw(extras):
        argv += _words(draw, flag, optional[flag])
    return argv


def _reject_constant(name):
    raise AssertionError(f"stdout holds {name}, which is not JSON")


SCHEMAS = {
    path.name.removesuffix(".json"): json.loads(path.read_text(encoding="utf-8"))
    for path in resources.files("longctx").joinpath("schemas").iterdir()
    if path.name.endswith(".json")
}


@settings(max_examples=300, deadline=None)
@given(argvs())
@example(["memplan-search", "--devices", "1", "--seq-len", "64", "--budget", "1", "--max-q-chunk", "0"])
@example(["memplan-search", "--devices", "1", "--seq-len", "64", "--budget", "1", "--min-q-chunk", "64", "--max-q-chunk", "32"])
@example(["ringsim", "--seq-len", "8", "--devices", "1", "--q-chunk", "4", "--kv-chunk", "4", "--segments", "4,,4"])
@example(["niah-grid", "--lengths", "2000,,16000", "--depths", "50,", "--stub", "echo"])
@example(["rope-plan", "--context-len", "4096", "--candidates", ",,1e6"])
def test_every_argv_keeps_the_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    env = {k: v for k, v in os.environ.items() if k != "LONGCTX_ENDPOINT"}
    with (
        mock.patch.dict(os.environ, env, clear=True),
        warnings.catch_warnings(record=True) as caught,
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        warnings.simplefilter("always")
        try:
            code = dispatch(["--no-timestamp", *argv])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    if code == 1:
        assert out.getvalue() == "" and not caught, (argv, [str(w.message) for w in caught])
        jsonschema.validate(json.loads(err.getvalue()), SCHEMAS["error"])
    if code == 0 and out.getvalue().startswith("{"):
        doc = json.loads(out.getvalue(), parse_constant=_reject_constant)
        # recipe show and emit print the manifest itself, which has no "command" key.
        name = "recipe-manifest" if argv[:1] == ["recipe"] and argv[1] != "validate" else doc["command"]
        jsonschema.validate(doc, SCHEMAS[name])
