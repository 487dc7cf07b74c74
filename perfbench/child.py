"""One fresh process of the coclass benchmark; run.py starts it.

    child.py setup SCENARIO
        import the CLI, load and validate SCENARIO, print "ready", exit
    child.py run CLI_ARGS...
        run the coclass command line exactly as the console script does
    child.py trace SPANS_FILE METRICS_FILE RUN_ID CLI_ARGS...
        the same, with every layer module traced; spans go to SPANS_FILE as
        JSON lines and the per-layer metrics and exact counters to
        METRICS_FILE

The package is found through PYTHONPATH, which run.py points at src/.
"""

import json
import sys


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        from coclass import cli  # noqa: F401  (the import is part of set-up)
        from coclass import scenarios

        scenarios.load_scenario(rest[0])
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0
    if mode == "run":
        from coclass import cli

        return cli.main(rest)
    if mode == "trace":
        from tracer import Tracer

        spans_path, metrics_path, run_id, cli_args = rest[0], rest[1], rest[2], rest[3:]
        tracer = Tracer(run_id)
        tracer.install()
        from coclass import cli

        try:
            return cli.main(cli_args)
        finally:
            sys.stdout.flush()
            tracer.write_spans(spans_path)
            metrics, counters = tracer.layer_metrics()
            with open(metrics_path, "w") as fh:
                json.dump({"metrics": metrics, "counters": counters}, fh)
    sys.stderr.write("unknown mode %r\n" % mode)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
