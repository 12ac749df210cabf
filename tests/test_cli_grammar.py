"""Property test over the verb grammar of the command line: every argv
drawn from bounded ranges ends in a documented exit code, prints JSON (dot
text for ``sft --emit dot``) on success and nothing on failure, and prints
the same bytes when run again."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
# No example database is kept (database=None below); the cache of source
# constants that Hypothesis writes while collecting goes outside the tree.
hypothesis.configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "negabeta-hypothesis")

from negabeta.cli import run  # noqa: E402

_BASES = st.one_of(
    st.sampled_from(["pisot2:p=1,q=1", "multinacci:q=1,m=3", "poly:[1,0,-1,-1]@(1.2,1.4)",
                     "poly:[1,-1,-2]@(1.001,4)", "dec:1.8", "dec:2.5", "dec:1", "garbage"]),
    st.builds("pisot2:p={},q={}".format, st.integers(-1, 5), st.integers(-1, 5)),
    st.builds("multinacci:q={},m={}".format, st.integers(0, 3), st.integers(1, 5)),
    st.builds("dec:{}/{}".format, st.integers(-3, 40), st.integers(0, 16)),
    st.builds(lambda cs, lo, hi: f"poly:[{','.join(map(str, cs))}]@({lo},{hi})",
              st.lists(st.integers(-4, 4), min_size=1, max_size=5),
              st.sampled_from(["1", "1.1", "5/4", "3/2", "2", "0"]),
              st.sampled_from(["3/2", "2", "5/2", "4", "1"])),
)
_WORDS = st.lists(st.integers(1, 4), max_size=4).map(lambda w: "".join(map(str, w)))
_SEQS = st.one_of(
    st.sampled_from(["|32", "2|1", "|212", "|3", "21|2", "|2112", "|311133", "|2111", "|2", "|",
                     "x|1"]),
    st.builds("{}|{}".format, _WORDS, _WORDS),
)
_BUDGET = ["--budget", st.integers(-1, 200).map(str)]
_DIGITS = ["--digits", st.integers(0, 30).map(str)]
_N = st.integers(-1, 40).map(str)

_VERBS = {
    "expand": ["--beta", _BASES, "--x", st.sampled_from(["1", "0", "1/2", "-1", "1/0", "abc"]),
               "--n", _N],
    "orbit": ["--beta", _BASES, *_BUDGET, *_DIGITS],
    "density": ["--beta", _BASES, *_BUDGET, *_DIGITS],
    "measure-compare": ["--beta1", _BASES, *_BUDGET],
    "entropy": ["--pi1", _SEQS, "--n", _N],
    "sft": ["--pi1", _SEQS, "--emit", st.sampled_from(["json", "dot"])],
    "match": ["--beta", _BASES, *_BUDGET, *_DIGITS],
    "solve": ["--target", _SEQS, *_DIGITS],
    "approx": ["--beta", _BASES, "--count", st.integers(0, 4).map(str),
               "--prefix", st.integers(0, 24).map(str), "--jobs", "1", *_BUDGET, *_DIGITS],
    "validate": ["--seq", _SEQS],
    "w-word": ["--n", _N],
}


@st.composite
def _argvs(draw, verb):
    argv = [verb] + [a if isinstance(a, str) else draw(a) for a in _VERBS[verb]]
    if verb == "measure-compare" and draw(st.booleans()):
        argv += ["--beta2", draw(_BASES)]
    return argv


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("verb", sorted(_VERBS))
@hypothesis.settings(max_examples=100, derandomize=True, database=None, deadline=None)
@hypothesis.given(data=st.data())
def test_verb_grammar(verb, data):
    argv = data.draw(_argvs(verb))
    code, out = _run(argv)
    assert code in (0, 2, 3)
    if code != 0:
        assert out == ""
    elif argv[0] == "sft" and argv[-1] == "dot":
        assert out.startswith("digraph") and out.endswith("}\n")
    else:
        json.loads(out)
    assert _run(argv) == (code, out)
