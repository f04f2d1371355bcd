"""CI trace artifacts: the Figure-1 scenario, sampled, exported.

Runs the paper's Figure-1 adaptation loop under production telemetry
settings (head-based sampling, full kernel timeline) and writes the two
artifacts CI uploads on every build:

* a Chrome ``trace_event`` JSON — drop it on https://ui.perfetto.dev;
* a folded-stack file — feed it to ``flamegraph.pl`` or import it into
  https://www.speedscope.app.

The script **fails (exit 1) when the span ring dropped anything** at the
default buffer size: the reference scenario must fit, so a nonzero drop
counter means either the scenario's span volume or the ring default
regressed.  Run::

    python benchmarks/export_figure1_trace.py [--rate 0.1] [--seed 0]
        [--trace figure1.trace.json] [--folded figure1.folded]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _path in (str(_ROOT), str(_ROOT / "src"), str(_ROOT / "benchmarks")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.telemetry import folded_stacks, write_chrome_trace, write_folded

from bench_f1_figure1_scenario import run_figure1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rate", type=float, default=0.1,
                        help="head-sampling rate (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=0,
                        help="sampling seed (default: %(default)s)")
    parser.add_argument("--trace", type=Path,
                        default=Path("figure1.trace.json"),
                        help="Perfetto-loadable Chrome trace output")
    parser.add_argument("--folded", type=Path,
                        default=Path("figure1.folded"),
                        help="folded-stack (flamegraph) output")
    cli = parser.parse_args(argv)

    result = run_figure1(sample_rate=cli.rate, seed=cli.seed,
                         kernel_detail="events")
    tracer = result["tracer"]

    trace_path = write_chrome_trace(tracer, cli.trace)
    folded = folded_stacks(tracer, kernel_weight="events")
    folded_path = write_folded(cli.folded, folded)

    spans = len(tracer.ring)
    print(f"figure-1 sampled run: rate={cli.rate:g} seed={cli.seed} | "
          f"{spans} spans kept, {tracer.drops} dropped, "
          f"{len(tracer.instants)} instants, {len(tracer.audit)} audit "
          f"records")
    print(f"wrote {trace_path} ({trace_path.stat().st_size:,} bytes)")
    print(f"wrote {folded_path} ({len(folded)} stacks)")

    if spans == 0:
        print("FAIL  the sampled trace kept no spans — always-on "
              "categories should have survived any rate")
        return 1
    if tracer.drops:
        print(f"FAIL  span ring dropped {tracer.drops} spans at default "
              f"capacity — the reference scenario must fit without loss")
        return 1
    print("ok    no spans dropped at default ring capacity")
    return 0


if __name__ == "__main__":
    sys.exit(main())
