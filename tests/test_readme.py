"""README.md's examples run as written and its config document parses."""

import json
import re
from pathlib import Path

from nshapley.config import RunConfig

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)


def test_python_blocks_run_in_order():
    blocks = _blocks("python")
    assert blocks
    namespace: dict = {}  # later blocks use the names earlier ones import
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_config_documents_follow_the_grammar():
    documents = [json.loads(block) for block in _blocks("json")]
    configs = [doc for doc in documents if "value_fn" in doc]
    assert configs
    for doc in configs:
        RunConfig.from_mapping(doc)
