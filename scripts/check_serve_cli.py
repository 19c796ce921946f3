#!/usr/bin/env python3
"""Argument-parsing regression test for the gcd2_serve CLI.

Usage: check_serve_cli.py [path/to/gcd2_serve]

Every case runs the binary with a malformed (or trivial) command line
only -- no compile is triggered -- and checks the exit status plus the
presence/absence of the usage text:
  - a value-taking flag in final position (--dir, --workers, --repeat)
    must print "needs a value" plus usage and exit 2, not read past argv;
  - a malformed numeric value (non-numeric, negative, trailing garbage)
    for --workers, --repeat or --max-artifact-bytes must print "invalid
    value" plus usage and exit 2, not be silently misread;
  - an unknown flag must be rejected with usage and exit 2, not be
    swallowed as a model name;
  - --help / -h must print usage on stdout and exit 0;
  - an unknown model name must exit 2.
Registered as a ctest (serve_cli_args) so the full suite covers it.
"""
import subprocess
import sys


def run(binary: str, args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [binary] + args, capture_output=True, text=True, timeout=120
    )


def main() -> int:
    binary = sys.argv[1] if len(sys.argv) > 1 else "./build/tools/gcd2_serve"
    failures = 0

    def check(label, args, want_exit, want_stderr="", want_stdout=""):
        nonlocal failures
        proc = run(binary, args)
        problems = []
        if proc.returncode != want_exit:
            problems.append(
                f"exit {proc.returncode}, want {want_exit}")
        if want_stderr and want_stderr not in proc.stderr:
            problems.append(f"stderr missing {want_stderr!r}")
        if want_stdout and want_stdout not in proc.stdout:
            problems.append(f"stdout missing {want_stdout!r}")
        if problems:
            print(f"FAIL: {label} ({'; '.join(problems)})",
                  file=sys.stderr)
            failures += 1
        else:
            print(f"ok: {label}")

    for flag in ["--dir", "--workers", "--repeat"]:
        check(f"{flag} without value", [flag], 2,
              want_stderr="needs a value")
        # The usage text must accompany the error.
        proc = run(binary, [flag])
        if "usage:" not in proc.stderr:
            print(f"FAIL: {flag} without value printed no usage",
                  file=sys.stderr)
            failures += 1
    for flag, bad in [("--workers", "4x"), ("--repeat", "abc"),
                      ("--max-artifact-bytes", "-1")]:
        check(f"{flag} {bad}", [flag, bad], 2, want_stderr="invalid value")
        check(f"{flag} {bad} with usage", [flag, bad], 2,
              want_stderr="usage:")
    check("unknown flag", ["--bogus"], 2, want_stderr="unknown flag")
    check("unknown flag with usage", ["--bogus"], 2,
          want_stderr="usage:")
    check("unknown short flag", ["-x"], 2, want_stderr="unknown flag")
    check("--help", ["--help"], 0, want_stdout="usage:")
    check("-h", ["-h"], 0, want_stdout="usage:")
    check("unknown model", ["no-such-model"], 2,
          want_stderr="unknown model")

    if failures:
        print(f"check_serve_cli: {failures} failure(s)", file=sys.stderr)
        return 1
    print("check_serve_cli: all CLI argument cases handled")
    return 0


if __name__ == "__main__":
    sys.exit(main())
