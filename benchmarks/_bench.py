"""The one writer of ``BENCH_sim.json``.

Every benchmark module owns some top-level sections of the file
(``batch_engine``, ``obs_overhead``, ``soc_scaling``, ...; the scalar
throughput benchmark owns ``kernels``/``total`` and their siblings).
:func:`merge_sections` replaces only the sections it is given and keeps
every other one, whatever order the modules run in.  The file is
rewritten atomically (temp file + ``os.replace``), so an interrupted
run never leaves it truncated.
"""

from __future__ import annotations

import json
import os
import tempfile

BENCH_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_sim.json")


def merge_sections(sections: dict, path: str = BENCH_PATH) -> None:
    """Set *sections* (top-level key -> value) in the file at *path*,
    keeping every section not named."""
    data = {}
    if os.path.exists(path):
        with open(path) as handle:
            data = json.load(handle)
    data.update(sections)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                               prefix=".bench-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(data, handle, indent=1, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
