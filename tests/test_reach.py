"""The commands run every line of the package.

A table of command lines runs in process under ``sys.settrace``, and so
does each module's source once more, executed into a namespace of its
own, which runs the code that runs at import; ``__main__`` and the
``cli`` module, executed as the main module, each call ``main()`` on a
patched ``sys.argv``. Every executable line of ``src/switchsim/``, each
line number that the running interpreter's code objects of its source
hold (``co_lines()``), must run, but for the statements of ``ALLOWED``.

Input is checked once, where it enters: argparse, ``SweepConfig``,
``ChannelSpec``, ``verify`` and ``emit``. A statement that no command line
runs is either such a check, listed with the reason no command reaches
it, or a check or branch that the boundary already implies, which
belongs with the tests' references (``reference.py``) or nowhere. An
entry is keyed by its module and the text of its statement (of its
header, for a compound statement), with whitespace collapsed, not by line
number, and an entry that a command does run fails the guard as well.
Each command line of the table also runs on its own, so that a wrong exit
code, a traceback or a rejection without its message names its command.
"""

import ast
import contextlib
import io
import sys
from pathlib import Path

import pytest

import switchsim
from switchsim import cli
from switchsim import entanglement as ent

PACKAGE = Path(switchsim.__file__).parent

#: why a statement may go unrun: no command line can reach it
PARSER = "argparse rejects the value first, with choices= from the same table: "
LIBRARY = "a library-only boundary: "

#: (module, statement) -> the reason no command line runs it
ALLOWED = {
    ("channels", 'raise ValueError(f"unknown channel kind {kind!r}; expected one of '
                 '{CHANNEL_KINDS}")'): PARSER + "--channel, CHANNEL_KINDS",
    ("sweep", 'raise ValueError(f"noise qubit must be 0 or 1, got {self.qubit}")'):
        PARSER + "--noise-qubit, NOISE_QUBITS",
    ("sweep", 'raise ValueError( f"unknown measure {self.measure!r}; expected one of '
              '{tuple(MEASURES)}" )'): PARSER + "--measure, MEASURES",
    ("sweep", 'raise ValueError(f"unknown measures: {sorted(unknown)}")'):
        PARSER + "verify --measure, MEASURES",
    ("sweep", 'raise ValueError("diff needs a channel (--channel/--p)")'):
        "argparse rejects diff without --channel first (required=True)",
    ("sweep", 'raise ValueError(f"diff is defined for {mixed_measures()}, got '
              '{config.measure!r}")'): PARSER + "diff --measure, mixed_measures()",
    ("entanglement", 'raise ValueError(f"log_base must be \'e\' or \'2\', got {log_base!r}")'):
        PARSER + "--log-base, LOG_SCALES",
    ("sweep", 'raise ValueError(f"format must be \'csv\' or \'json\', got {fmt!r}")'):
        PARSER + "--format, FORMATS",
    ("channels", 'raise ValueError(f"p must be one value or a stack of at least one, got '
                 'shape {lead}")'): LIBRARY + "--p takes one float",
    ("sweep", 'raise ValueError(f"a sweep takes one value of p, got {config.channel.p!r}")'):
        LIBRARY + "--p takes one float",
    ("sweep", 'raise ValueError(f"diff takes one value of p, got {config.channel.p!r}")'):
        LIBRARY + "--p takes one float",
    ("sweep", "destination.write(text)"): LIBRARY + "the command line writes to stdout or --out",
}

#: (argv, exit code): every command, measure, channel kind, noise qubit and
#: format, with and without --compare; a negative float option, which
#: argparse reads only once it is joined to its option; an integral value
#: in JSON, which takes the encoder's text; output to a file; and every
#: input the boundary rejects. "{tmp}" is a temporary directory.
RUNS = [
    (["sweep", "--measure", "schmidt", "--compare", "--a-steps", "2", "--t-steps", "3"], 0),
    (["sweep", "--measure", "ppt", "--compare", "--format", "json", "--t-max", "1",
      "--t-steps", "2"], 0),
    (["sweep", "--measure", "concurrence", "--compare", "--a", "-0.5", "--t-steps", "3"], 0),
    (["sweep", "--measure", "iconcurrence", "--compare", "--t-min", "-1e-5", "--t-steps", "3"], 0),
    (["sweep", "--measure", "entropy", "--compare", "--log-base", "2", "--t-steps", "3"], 0),
    (["sweep", "--measure", "fidelity", "--compare", "--format", "json", "--t-steps", "3"], 0),
    (["sweep", "--measure", "concurrence", "--channel", "PF", "--p", "0.3", "--noise-qubit", "1",
      "--t-steps", "3"], 0),
    (["sweep", "--measure", "iconcurrence", "--channel", "BF", "--compare", "--t-steps", "3"], 0),
    (["sweep", "--measure", "ppt", "--channel", "AD", "--format", "json", "--t-steps", "3"], 0),
    (["sweep", "--measure", "entropy", "--channel", "PD", "--noise-qubit", "1",
      "--t-steps", "3"], 0),
    (["diff", "--measure", "concurrence", "--channel", "AD", "--noise-qubit", "1",
      "--t-steps", "3"], 0),
    (["diff", "--measure", "iconcurrence", "--channel", "PF", "--compare", "--t-steps", "3"], 0),
    (["diff", "--measure", "entropy", "--channel", "BF", "--format", "json", "--t-steps", "3"], 0),
    (["diff", "--measure", "ppt", "--channel", "PD", "--noise-qubit", "1", "--t-steps", "3"], 0),
    (["avg-fidelity", "--channel", "PF", "--compare", "--t-steps", "3"], 0),
    (["avg-fidelity", "--channel", "BF", "--noise-qubit", "1", "--t-steps", "3"], 0),
    (["avg-fidelity", "--channel", "AD", "--compare", "--format", "json", "--t-steps", "3"], 0),
    (["avg-fidelity", "--channel", "PD", "--p", "0.5", "--compare", "--t-steps", "3"], 0),
    (["verify", "--a-steps", "3", "--t-steps", "3"], 0),
    (["verify", "--measure", "entropy", "--log-base", "2", "--a-steps", "2", "--t-steps", "2"], 0),
    (["verify", "--measure", "ppt", "--a-steps", "2", "--t-steps", "2",
      "--inject-error", "1e-6"], 1),
    (["sweep", "--measure", "entropy", "--t-steps", "3", "--out", "{tmp}/out.csv"], 0),
    # the grid
    (["sweep", "--measure", "concurrence", "--t-steps", "1"], 2),
    (["sweep", "--measure", "concurrence", "--a-steps", "0"], 2),
    (["sweep", "--measure", "concurrence", "--a-steps", "1001", "--t-steps", "1000"], 2),
    (["verify", "--a-steps", "0"], 2),
    (["verify", "--measure", "avg_fidelity", "--t-steps", "1"], 2),
    (["sweep", "--measure", "concurrence", "--t-min", "1", "--t-max", "0"], 2),
    (["sweep", "--measure", "concurrence", "--t-min", "-1e308", "--t-max", "1e308"], 2),
    # non-finite values
    (["sweep", "--measure", "concurrence", "--a", "nan"], 2),
    (["sweep", "--measure", "concurrence", "--t-max", "inf"], 2),
    (["diff", "--measure", "entropy", "--channel", "AD", "--t-min", "-inf"], 2),
    (["verify", "--inject-error", "nan"], 2),
    # the channel
    (["sweep", "--measure", "concurrence", "--channel", "PF", "--p", "1.5"], 2),
    (["avg-fidelity", "--channel", "AD", "--p", "nan"], 2),
    (["sweep", "--measure", "schmidt", "--channel", "AD", "--t-steps", "3"], 2),
    (["sweep", "--measure", "avg_fidelity", "--t-steps", "3"], 2),
    # output
    (["sweep", "--measure", "entropy", "--t-steps", "3", "--out", "{tmp}/no/such/out.csv"], 2),
    # argparse: a float option missing its value, and values outside a table
    (["sweep", "--measure", "schmidt", "--a", "--t-steps", "3"], 2),
    (["sweep", "--measure", "negativity"], 2),
    (["diff", "--measure", "fidelity", "--channel", "PF"], 2),
    (["diff", "--measure", "concurrence"], 2),
    (["sweep", "--measure", "concurrence", "--channel", "XX"], 2),
    (["sweep", "--measure", "concurrence", "--channel", "PF", "--noise-qubit", "2"], 2),
    (["sweep", "--measure", "entropy", "--log-base", "10"], 2),
    (["sweep", "--measure", "entropy", "--format", "yaml"], 2),
    (["avg-fidelity", "--channel", "PF", "--log-base", "2"], 2),
]

#: the command each main-module run takes from ``sys.argv``
MAIN_ARGV = ["switchsim", "sweep", "--measure", "fidelity", "--t-steps", "2"]


def _sources() -> dict:
    """Path -> source text of each module of the package."""
    return {path: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def _code_lines(code) -> set:
    """The line numbers of ``code`` and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statement(tree: ast.Module, source: list, line: int) -> str:
    """The text of the innermost statement that holds ``line`` (of its
    header, for a compound statement), whitespace collapsed."""
    holding = [node for node in ast.walk(tree) if isinstance(node, ast.stmt)
               and node.lineno <= line <= node.end_lineno]
    node = min(holding, key=lambda n: n.end_lineno - n.lineno)
    last = node.end_lineno
    if hasattr(node, "body"):  # a compound statement: its header alone
        last = max(node.lineno, node.body[0].lineno - 1)
    return " ".join(" ".join(text.split()) for text in source[node.lineno - 1:last])


def _run(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exited:  # argparse's usage errors
        return exited.code


def _run_as_main(path: Path, source: str) -> None:
    """Execute one module's source again, into a namespace of its own."""
    name = "__main__" if path.stem in ("__main__", "cli") else f"switchsim.{path.stem}"
    namespace = {"__name__": name, "__package__": "switchsim", "__file__": str(path)}
    try:
        exec(compile(source, str(path), "exec"), namespace)
    except SystemExit as exited:
        assert exited.code == 0, path


@pytest.mark.parametrize("argv, code", RUNS, ids=[" ".join(argv) for argv, _ in RUNS])
def test_each_command_line_exits_with_its_code_and_no_traceback(tmp_path, capsys, argv, code):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert _run(argv) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if "--out" in argv and code == 0:
        assert out == ""
        out = Path(argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
    # a rejected line says why on stderr and writes nothing else; a failed
    # verification is a report, on stdout
    assert (err != "") == (code == 2)
    assert (out != "") == (code != 2)
    if code == 2:
        assert "error: " in err


def test_the_commands_run_every_package_line(tmp_path, monkeypatch):
    sources = _sources()
    files = {str(path) for path in sources}
    ran = set()

    def line(frame, event, arg):
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        if frame.f_code.co_filename in files:
            return line(frame, event, arg)
        return None

    # caches that earlier tests of this process have filled: the parser
    # that main reuses, and the column pairs of the determinant kernel
    cli._parser.cache_clear()
    ent._COLUMN_PAIRS.clear()
    monkeypatch.setattr(sys, "argv", MAIN_ARGV)
    exits = []
    sys.settrace(call)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv, _ in RUNS:
                exits.append(_run([arg.format(tmp=tmp_path) for arg in argv]))
            for path, source in sources.items():
                _run_as_main(path, source)
    finally:
        sys.settrace(None)
    assert exits == [code for _, code in RUNS]

    unrun = {}
    for path, source in sources.items():
        tree, text = ast.parse(source), source.splitlines()
        for number in sorted(_code_lines(compile(source, str(path), "exec"))):
            if (str(path), number) not in ran:
                key = (path.stem, _statement(tree, text, number))
                unrun.setdefault(key, number)
    missed = [f"{module}.py:{number}: {statement}" for (module, statement), number
              in unrun.items() if (module, statement) not in ALLOWED]
    assert not missed, "no command runs:\n" + "\n".join(missed)
    stale = sorted(set(ALLOWED) - set(unrun))
    assert not stale, f"allowed but run, or gone: {stale}"
