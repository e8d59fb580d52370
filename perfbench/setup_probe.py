"""Set-up cost every `scale` command pays, in a fresh interpreter.

Imports the CLI, validates the config given as the only argument, and
builds the dataset and the client partition. The caller times the whole
process.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from scale_fu import cli  # noqa: E402
from scale_fu.config import load_config  # noqa: E402

cfg = load_config(sys.argv[1])
cli.build_partition(cfg, cli.build_dataset(cfg))
