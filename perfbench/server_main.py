"""``repro serve`` with the benchmark's probes installed.

Usage::

    python3 perfbench/server_main.py SPEED_OUT TRACE_OUT serve [options...]

Pins the server to one CPU and samples that CPU's speed from a thread
(:mod:`hostspeed`) for the server's whole life; with a ``TRACE_OUT``
other than ``-`` it also installs the layer spans of :mod:`spans`.  It
then runs the CLI with the remaining arguments, and when the server has
stopped (SIGTERM drains it like Ctrl-C) writes the speed samples as JSON
to ``SPEED_OUT`` and the merged span snapshot to ``TRACE_OUT``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hostspeed import SpeedSampler, pin_to  # noqa: E402
from spans import Tracer, install_layers  # noqa: E402


def main() -> int:
    speed_out, trace_out, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    pin_to("first")
    tracer = None
    if trace_out != "-":
        tracer = Tracer()
        install_layers(tracer)
    from repro.cli import main as cli_main

    sampler = SpeedSampler().start()
    try:
        return cli_main(cli_args)
    finally:
        sampler.stop()
        Path(speed_out).write_text(json.dumps(sampler.samples),
                                   encoding="utf-8")
        if tracer is not None:
            tracer.restore()
            Path(trace_out).write_text(json.dumps(tracer.snapshot()),
                                       encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
