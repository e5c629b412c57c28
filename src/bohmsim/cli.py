"""Command-line driver: run, list, and validate scenario configurations.

Exit codes: 0 all assertions passed, 1 assertion failure, 2 config error.
"""

import argparse
import json
import sys

from .scenarios import ConfigError, list_scenarios, run_scenario, validate_config


def _load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        print(f"config error: no such file {path!r}", file=sys.stderr)
        sys.exit(2)
    except json.JSONDecodeError as exc:
        print(f"config error: {path}: line {exc.lineno} column {exc.colno}: "
              f"{exc.msg}", file=sys.stderr)
        sys.exit(2)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="bohmsim",
        description="pilot-wave dynamics laboratory: reproducible scenarios")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario config")
    run_p.add_argument("config")
    run_p.add_argument("--out", default=None, help="output directory override")
    run_p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect, "
                            "every run uses one thread")
    run_p.add_argument("--seed-override", type=int, default=None,
                       help="replaces the config's seed; scenarios without "
                            "a seed parameter draw no random numbers and "
                            "ignore it")

    sub.add_parser("list", help="list the named scenarios")

    val_p = sub.add_parser("validate", help="check a config without running it")
    val_p.add_argument("config")

    args = parser.parse_args(argv)

    if args.command == "list":
        for name, desc in list_scenarios():
            print(f"{name:18s} {desc}")
        return 0

    if args.command == "validate":
        errors = validate_config(_load_config(args.config))
        if errors:
            for e in errors:
                print(f"config error: {e}", file=sys.stderr)
            return 2
        print("ok")
        return 0

    config = _load_config(args.config)
    try:
        code, report = run_scenario(config, out_dir=args.out,
                                    threads=args.threads,
                                    seed_override=args.seed_override)
    except ConfigError as exc:
        for e in exc.errors:
            print(f"config error: {e}", file=sys.stderr)
        return 2
    for check in report.get("checks", []):
        mark = "PASS" if check["passed"] else "FAIL"
        print(f"[{mark}] {check['name']}")
    print(f"scenario {report['scenario']}: "
          f"{'passed' if report['passed'] else 'FAILED'}")
    return code


if __name__ == "__main__":
    sys.exit(main())
