"""Run one ``wigentropy`` CLI command with the tracer installed.

    python3 perfbench/traced_cli.py <stats.json> <command> [arguments...]

Writes the per-layer summary to ``stats.json`` and exits with the command's
exit code.  The process pool of ``sigma-table`` is replaced by an in-process
map, because spans recorded in pool workers would be lost with them; the
summary says so in ``pool_in_process``.
"""

from __future__ import annotations

import json
import sys

import tracer as tracing


def main(stats_path: str, argv: list[str]) -> int:
    trace = tracing.install()
    import wigentropy.cli as cli

    in_process = tracing.keep_pool_work_in_process(cli)
    code = 0
    try:
        cli.main.main(args=argv, prog_name="wigentropy", standalone_mode=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        summary = trace.summary()
        summary["pool_in_process"] = int(in_process)
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
