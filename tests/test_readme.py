"""The README's library example runs and prints what its comments say."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_matches_its_comments():
    block = README.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    shown = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if comment:
            # each commented line is an expression whose repr is the comment
            assert repr(eval(code, namespace)) == comment.strip(), line
            shown.append(comment.strip())
        else:
            exec(code, namespace)
    assert shown == ["'M'", "'0/4'", "'2x2w1:2,4;0,6'"]
