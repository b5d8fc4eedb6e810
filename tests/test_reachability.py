"""Every named function and method of ``src/mixprec`` runs in a pipeline.

Code that only tests call belongs in ``tests/``. A few tiny pipelines run
in-process under ``sys.setprofile``, at targets that between them take every
path of the stages: W4A8 (the defaults), W4A6 (both tables), A-only A4, and
W4A8 without the first-token-aware K/V path. Every function and method the
package's source defines, nested ones included, must be among the code
objects they call, or be named in ``UNREACHED`` with the reason it stays.
"""

import ast
import sys
from pathlib import Path

import mixprec
from mixprec import cli, toy_model

SRC = Path(mixprec.__file__).resolve().parent

TINY = [
    "--width", "2", "--spatial", "4", "--tokens", "2", "--text-channels", "2", "--time-dim", "2",
    "--inputs", "2", "--proxy-inputs", "2", "--eval-inputs", "2", "--n-budgets", "1",
]

PIPELINES = ([], ["--act-target-bits", "6"], ["--target-bits", "fp", "--act-target-bits", "4"], ["--no-bos-aware"])

# module.qualname -> why no pipeline calls it yet
UNREACHED = {
    "toy_model.QuantConfig.uniform": "the uniform sweep cell of ROADMAP item 1 (allocator against uniform) calls it",
}


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> module.qualname of every named function in the
    package; the first line is a decorated function's first decorator, as in
    its code object."""
    found = {}

    def visit(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[str(path), first] = f"{path.stem}.{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return found


def test_every_function_in_the_package_runs_in_a_pipeline(tmp_path, capsys):
    called = set()

    def profile(frame, event, _arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    toy_model._segment_list.cache_clear()  # built by earlier tests, it would not run again
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main(["pipeline", "--out-dir", str(tmp_path / str(i)), *TINY, *flags])
                 for i, flags in enumerate(PIPELINES)]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [0] * len(PIPELINES)
    ran = {(str(Path(name).resolve()), line) for name, line in called}
    defined = defined_functions()
    unreached = sorted(name for key, name in defined.items() if key not in ran)
    assert unreached == sorted(UNREACHED), f"functions no pipeline calls: {sorted(set(unreached) - set(UNREACHED))}"
