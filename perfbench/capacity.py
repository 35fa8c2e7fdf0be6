"""Capacity probe behind the offered load of the ``serve-mixed`` workload.

Usage (from the repository root)::

    python3 perfbench/capacity.py --seed 1

Prints the classify capacity of ``repro serve`` with no mines running
(a closed loop of ``serve-mixed``'s own raw-value requests on one
connection), the in-process time of one cold mine of a ``serve-mixed``
payload, and the share of each that ``serve.py``'s offered rates use.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REQUESTS = 400
PAYLOADS = 6


async def _closed_loop(port: int, bodies: list) -> float:
    """Requests per second of back-to-back classify calls on one connection."""
    from serve import _Pool

    pool = _Pool(port, 1)
    start = time.monotonic()
    try:
        for index in range(REQUESTS):
            status, data, _ = await pool.call(
                "POST", "/classify", bodies[index % len(bodies)])
            if status != 200:
                raise RuntimeError(f"/classify status {status}: {data[:200]!r}")
    finally:
        await pool.close()
    return REQUESTS / (time.monotonic() - start)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="capacity-", dir=scratch_root)
    os.environ["REPRO_CACHE_DIR"] = os.path.join(scratch, "cache")
    try:
        import serve
        from batch import _calls
        from common import median
        from hostspeed import pin_to
        from repro.core.topk_miner import mine_topk, relative_minsup
        from repro.data.loaders import discretized_from_payload

        # As in serve-mixed: the server on the first CPU, this client on
        # the last.
        pin_to("last")
        inputs = serve._inputs(args.seed, _calls(), PAYLOADS)
        mine_s = []
        for body in inputs["mine"]:
            dataset = discretized_from_payload(json.loads(body)["items"])
            minsup = relative_minsup(dataset, 1, serve.MINE_MINSUP)
            start = time.perf_counter()
            mine_topk(dataset, 1, minsup, k=serve.MINE_K)
            mine_s.append(time.perf_counter() - start)
        server = serve.Server(ROOT, scratch, 0)
        try:
            serve._request(server.port, "POST", "/models", inputs["register"])
            rps = [asyncio.run(_closed_loop(server.port, inputs["classify"]))
                   for _ in range(3)]
        finally:
            server.stop()
        mine_load = (serve.ROUND_NEW_MINES * median(mine_s)
                     / serve.ROUND_PERIOD_S)
        print(f"classify capacity, one connection, no mines: "
              f"{', '.join(f'{value:.1f}' for value in rps)} requests/s")
        print(f"offered classify: {serve.CLASSIFY_RPS:g}/s = "
              f"{serve.CLASSIFY_RPS / median(rps):.0%} of the median capacity")
        print(f"cold in-process mine of one payload: median "
              f"{median(mine_s):.4f} s (min {min(mine_s):.4f}, "
              f"max {max(mine_s):.4f})")
        print(f"offered mines: {serve.ROUND_NEW_MINES} per "
              f"{serve.ROUND_PERIOD_S:g} s = {mine_load:.0%} of one core "
              f"in-process")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
