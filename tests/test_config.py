import re
from dataclasses import fields
from pathlib import Path

import cqdual
from cqdual.config import Tolerances

SRC = Path(cqdual.__file__).parent


def test_every_tolerance_is_read():
    # a field no module reads is a dead knob: deleting its last reader
    # deletes the field too
    read = {name for path in SRC.glob("*.py") if path.name != "config.py"
            for name in re.findall(r"\bTOL\.(\w+)", path.read_text())}
    assert sorted(f.name for f in fields(Tolerances) if f.name not in read) == []
