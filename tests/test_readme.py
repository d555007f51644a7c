from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    """The Python block of README's Library section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_shows_what_it_computes():
    code = _library_example()
    ns = {}
    exec(code, ns)
    for expr, _, comment in (line.partition("#") for line in code.splitlines()):
        if expr.strip() and comment:  # an expression, and the repr it shows
            assert repr(eval(expr, ns)) == comment.strip(), expr
    parts, inner, norm_sq = ns["parts"], ns["inner"], ns["norm_sq"]
    assert repr(parts.associator) == "HNum([0, 0, 0, 0, 0, 0, 0, -1], backend='exact')"
    assert inner(parts.cross, parts.associator) == 0
    assert norm_sq(parts.anticommutator) + norm_sq(parts.cross) + norm_sq(parts.associator) == 1
