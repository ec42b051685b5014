"""One measured study run in a fresh interpreter.

    python3 child.py SPEC_JSON

SPEC_JSON names the checkout's `src` directory, the study, the generated
config, the seed, the artifact directory, whether to trace, where to write
the result and the parent's CLOCK_MONOTONIC reading taken just before it
started this process.

The result file holds setup_s (process start to dklab imported and the
config resolved), wall_s (the `dklab study` call), the exit code, the peak
resident set size and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from dklab import cli, studies

    config = cli.load_config(spec["config"])
    block = dict(config.get("study", {}))
    block.pop("name", None)
    cfg_cls, _runner = studies.STUDY_REGISTRY[spec["study"]]
    studies.config_from_dict(cfg_cls, block)
    # time.monotonic reads CLOCK_MONOTONIC, which the parent read as well
    setup_s = time.monotonic() - spec["launched"]
    import numpy
    import scipy
    result = {"setup_s": setup_s,
              "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__}}

    argv = ["study", spec["study"], "--config", spec["config"],
            "--seed", str(spec["seed"]), "--jobs", "1", "--out", spec["out"]]
    main_fn = cli.main
    tracer = None
    if spec["trace"]:
        from layertrace import Tracer  # found next to this file
        tracer = Tracer()
        main_fn = tracer.install()
    c0 = time.process_time()
    t0 = time.perf_counter()
    rc = main_fn(argv)
    result["wall_s"] = time.perf_counter() - t0
    result["cpu_s"] = time.process_time() - c0
    result["rc"] = rc
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summarise()
        tracer.save(spec["spans"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
