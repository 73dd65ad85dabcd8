"""Set-up probe: start `lmsql run` in this fresh interpreter and stop it the
moment it is ready to process its first example.

Prints one line `READY <json>`, then `CAL <seconds>`, and exits. The
parent times from process start to the READY line, so interpreter start,
`import lmsql.cli`, config, fixture, exemplar and demo-pool loading and the
dataset read are all in the figure. The JSON holds the CPU seconds the
probe used up to that line (`cpu_s`); with --trace also the import time and
the time of each load. CAL is the median of nine `hooks.calibrate()`
readings taken after READY, on the CPU the probe ran on.

    python3 perfbench/setup_probe.py [--trace] -- <lmsql run arguments>
"""

import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> None:
    argv = sys.argv[1:]
    trace = argv[:1] == ["--trace"]
    run_args = argv[argv.index("--") + 1:]
    start = time.perf_counter()
    import json

    import lmsql.cli
    import_s = time.perf_counter() - start
    times = {}

    def ready(run_example):
        def stop(*args, **kwargs):
            payload = dict(times, **{"cli.import_s": import_s}) if trace else {}
            payload["cpu_s"] = time.process_time()
            sys.stdout.write("READY " + json.dumps(payload) + "\n")
            sys.stdout.flush()
            import statistics

            from hooks import calibrate
            cal = statistics.median(calibrate() for _ in range(9))
            sys.stdout.write(f"CAL {cal!r}\n")
            sys.stdout.flush()
            os._exit(0)
        return stop

    if trace:
        from hooks import patched, setup_targets
        with patched([(lmsql.cli, "_run_example", ready)] + setup_targets(times)):
            code = lmsql.cli.main(["run"] + run_args)
    else:
        lmsql.cli._run_example = ready(lmsql.cli._run_example)
        code = lmsql.cli.main(["run"] + run_args)
    print(f"setup probe: lmsql run exited with {code} before its first example", file=sys.stderr)
    sys.exit(1)


if __name__ == "__main__":
    main()
