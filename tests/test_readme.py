import re
import shlex
from pathlib import Path

from dpchroma import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run():
    # every ```python block of the README is run as written, top to bottom
    blocks = fenced_blocks("python")
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})


def test_readme_shell_lines_run(capsys):
    # every line of the ```sh blocks is split as a POSIX shell splits it: an
    # unquoted `0>1` would be a redirection, not an argument.  Each
    # dp-chroma line then runs and exits 0
    ran = 0
    for line in "".join(fenced_blocks("sh")).splitlines():
        lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
        lexer.whitespace_split = True
        tokens = list(lexer)
        assert not [t for t in tokens if set(t) <= set(lexer.punctuation_chars)], line
        if tokens[0] == "dp-chroma":
            assert cli.main(tokens[1:]) == 0, line
            capsys.readouterr()
            ran += 1
    assert ran
