"""Set-up child of run.py: python3 setup_corpus.py WORKLOAD SEED OUT_DIR

Imports autocast (numpy, scipy), then generates and writes one corpus, with
the host-speed sampler running from that first import on. Prints one JSON
line with the sampler's slowdown and handler time over that interval.
"""
import json
import sys
import time

import hostspeed


def main(name: str, seed: str, out_dir: str) -> dict:
    with hostspeed.HostSpeed() as host:
        start = time.perf_counter()
        import corpora

        corpora.write_corpus(corpora.WORKLOADS[name], int(seed), out_dir)
        end = time.perf_counter()
    return {"slowdown": host.slowdown(start, end), "handler_s": host.handler_seconds(start, end)}


if __name__ == "__main__":
    print(json.dumps(main(*sys.argv[1:])))
