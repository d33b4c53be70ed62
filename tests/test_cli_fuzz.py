"""Fuzz the CLI: whatever the input or the argv, ``main`` ends with one of
its documented exit codes (0 success, 1 verification failure, 2 input
error) and lets no exception escape."""

import contextlib
import io
import itertools
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from cisgraphs.cli import build_parser, main
from cisgraphs.graphs import Graph, encode_graph6

FUZZ = settings(max_examples=60, deadline=None)

# the commands that read a graph; inputs stay small so each call is cheap
GRAPH_COMMANDS = (["classify"], ["equistable", "--verify"],
                  ["cis-line", "--verify"])


def send(argv, stdin_text=""):
    """(exit code, stdout, stderr) of one request."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin_text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            # argparse's own exit: 2 for a usage error, 0 for --help
            assert exc.code in (0, 2), argv
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def exit_code(argv, stdin_text=""):
    return send(argv, stdin_text)[0]


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 8))
    pairs = list(itertools.combinations(range(n), 2))
    picks = draw(st.lists(st.booleans(), min_size=len(pairs),
                          max_size=len(pairs)))
    return Graph(n, [p for p, keep in zip(pairs, picks) if keep])


@st.composite
def graph6_texts(draw):
    chars = list(encode_graph6(draw(small_graphs())))
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(chars)))
        byte = draw(st.characters(max_codepoint=255))
        if pos < len(chars) and draw(st.booleans()):
            chars[pos] = byte
        else:
            chars.insert(pos, byte)
    return "".join(chars)


tokens = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["70", "300000", "1e3", "0x1", "-", "#", "a", "1.5"]),
    st.text(max_size=4),
)
edge_list_texts = st.lists(
    st.lists(tokens, max_size=3).map(" ".join), max_size=8
).map("\n".join)


@FUZZ
@given(st.sampled_from(GRAPH_COMMANDS), graph6_texts())
def test_fuzz_graph6_input(command, text):
    assert exit_code(command + ["-i", "-"], text) in (0, 1, 2)


@FUZZ
@given(st.sampled_from(GRAPH_COMMANDS), edge_list_texts)
def test_fuzz_edge_list_input(command, text):
    assert exit_code(command + ["-i", "-"], text) in (0, 1, 2)


# (flag, value strategy) for each flag a command accepts; values mix valid
# and invalid ones.
# table and scan are kept to the cheap end: no LP table, scans up to n = 4
# or orders the CLI refuses.
INPUTS = st.one_of(
    st.just("-"),
    st.sampled_from(["gallery:P4", "gallery:C4", "gallery:Cir9",
                     "gallery:L", "gallery:LLbar", "gallery:nope",
                     "no/such/file", "random-split:x", "random-split:1,2,3"]),
    st.tuples(st.integers(-1, 4), st.integers(-1, 4)).map(
        lambda kl: f"random-split:{kl[0]},{kl[1]}"),
    st.sampled_from(["random-split:40,40", "random-split:100000,100000"]),
)
FORMAT = ("--format", st.sampled_from(["json", "csv", "text", "xml"]))
INPUT = [("-i", INPUTS), ("--seed", st.sampled_from(["0", "7", "-1", "x"])),
         FORMAT]
VERIFY = ("--verify", None)
FLAGS = {
    "classify": INPUT,
    "equistable": INPUT + [VERIFY],
    "cis-line": INPUT + [VERIFY],
    "table": [FORMAT],
    "scan": [("--max-n", st.sampled_from(["-1", "0", "3", "4", "9", "100",
                                          "x"])),
             ("--include-lp", None), FORMAT],
    "gallery list": [FORMAT],
    "gallery emit": [FORMAT],
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = command.split()
    if command == "gallery emit":
        argv.append(draw(st.sampled_from(["P4", "L", "LLbar", "nope"])))
    flags = FLAGS[command]
    for i in draw(st.lists(st.integers(0, len(flags) - 1), max_size=4)):
        flag, values = flags[i]
        argv.append(flag)
        if values is not None:
            argv.append(draw(values))
    if command == "scan" and "--max-n" not in argv:
        argv += ["--max-n", "3"]
    return argv


@FUZZ
@given(argvs(), graph6_texts())
def test_fuzz_argv(argv, text):
    assert exit_code(argv, text) in (0, 1, 2)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(argvs(), graph6_texts()), min_size=2, max_size=3))
def test_shared_parser_matches_fresh_parser(requests):
    # each request answers through the parser the earlier requests used
    # exactly as through a parser built for it alone
    shared = [send(argv, text) for argv, text in requests]
    for (argv, text), output in zip(requests, shared):
        build_parser.cache_clear()
        assert send(argv, text) == output, argv
