"""The README's library quick start runs as written against a bundled fixture."""

import re
from pathlib import Path

from ordclust import fixtures

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    code = next(b for b in blocks if "import ordclust as oc" in b)
    csv_path, schema_path = fixtures.fixture_paths("HR")
    assert '"data.csv"' in code and '"data.schema"' in code
    code = code.replace('"data.csv"', repr(str(csv_path))).replace('"data.schema"', repr(str(schema_path)))
    exec(compile(code, str(README), "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("RunMetrics(ca=")
