"""Start ``repro serve`` for the benchmark, optionally traced.

    python bench/serve.py [--trace-dir DIR] serve --fast --jobs 1 ...

With ``--trace-dir`` the layer wrappers of ``tracer.py`` are installed
before the server starts; its pool workers are forked from it, inherit
them, and rewrite ``DIR/spans-<pid>.json`` after every case.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(argv) -> int:
    if argv[:1] == ["--trace-dir"]:
        from tracer import Tracer

        Tracer(flush_dir=argv[1]).install()
        argv = argv[2:]
    from repro.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
