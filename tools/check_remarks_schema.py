#!/usr/bin/env python3
"""Validate `bwcopt --remarks=json` output against the bwc-remarks-v1 schema.

Usage:
    bwcopt --program fig7 --remarks=json | check_remarks_schema.py
    check_remarks_schema.py remarks.json
    bwcopt --program fig7 --lint --remarks=json \
        | check_remarks_schema.py --fail-on=error

With --fail-on=SEVERITY (error, or warning to also gate on warnings), the
checker additionally exits non-zero when any remark carries a finding of
that severity or worse -- the CI gate for `bwcopt --lint` runs.

The schema is the machine-readable pass-pipeline report documented in
docs/PIPELINE.md: one object per run carrying the pipeline spec, the
analysis-cache counters, and a per-pass record with wall time, IR
before/after stats, the predicted traffic-bound delta from
verify::compute_traffic_bound, the inter-pass verification outcome and
the structured remarks (the `message` of an applied or missed remark is
its line in the text pass log, PipelineReport::to_text).

CI pipes every bundled workload (and a non-default --passes ordering)
through this check so the JSON surface stays stable for downstream
tooling. Exits non-zero listing every violation. Stdlib only.
"""

import json
import sys

SCHEMA = "bwc-remarks-v1"
REMARK_KINDS = {"applied", "missed", "note"}
# Ordered least to most severe; see pass::RemarkSeverity.
REMARK_SEVERITIES = ("info", "warning", "error")


class Checker:
    def __init__(self) -> None:
        self.errors: list[str] = []

    def fail(self, path: str, why: str) -> None:
        self.errors.append(f"{path}: {why}")

    def field(self, obj: dict, path: str, key: str, types) -> object:
        """Requires obj[key] to exist with one of `types`; returns it."""
        if not isinstance(obj, dict):
            self.fail(path, f"expected object, got {type(obj).__name__}")
            return None
        if key not in obj:
            self.fail(path, f"missing required field '{key}'")
            return None
        value = obj[key]
        # bool is an int subclass; reject it unless bool was asked for.
        if isinstance(value, bool) and bool not in (
            types if isinstance(types, tuple) else (types,)
        ):
            self.fail(path + "." + key, "expected number, got bool")
            return None
        if not isinstance(value, types):
            self.fail(
                path + "." + key,
                f"expected {types}, got {type(value).__name__}",
            )
            return None
        return value


def check_ir_stats(c: Checker, stats: object, path: str) -> None:
    for key in ("loops", "statements", "arrays_referenced", "referenced_bytes"):
        value = c.field(stats, path, key, int)
        if value is not None and value < 0:
            c.fail(f"{path}.{key}", f"negative count {value}")


def check_verify(c: Checker, verify: object, path: str) -> None:
    if verify is None:  # verification off, or the pass changed nothing
        return
    check = c.field(verify, path, "check", str)
    if check == "":
        c.fail(path + ".check", "empty check name")
    skipped = c.field(verify, path, "skipped", bool)
    skip_reason = c.field(verify, path, "skip_reason", str)
    if skipped and not skip_reason:
        c.fail(path + ".skip_reason", "skipped verification gives no reason")
    instances = c.field(verify, path, "instances_checked", int)
    if instances is not None and instances < 0:
        c.fail(path + ".instances_checked", f"negative count {instances}")


def check_remark(c: Checker, remark: object, path: str) -> str | None:
    """Validates one remark; returns its severity (for the --fail-on gate)."""
    kind = c.field(remark, path, "kind", str)
    if kind is not None and kind not in REMARK_KINDS:
        c.fail(path + ".kind", f"unknown remark kind '{kind}'")
    code = c.field(remark, path, "code", str)
    if code == "":
        c.fail(path + ".code", "empty remark code")
    c.field(remark, path, "message", str)
    severity = c.field(remark, path, "severity", str)
    if severity is not None and severity not in REMARK_SEVERITIES:
        c.fail(path + ".severity", f"unknown severity '{severity}'")
    args = c.field(remark, path, "args", dict)
    if args is not None:
        for key, value in args.items():
            if not isinstance(value, str):
                c.fail(f"{path}.args.{key}", "arg values must be strings")
    return severity if severity in REMARK_SEVERITIES else None


def check_per_array(c: Checker, entries: object, path: str) -> None:
    """Per-array traffic breakdown: what each pass did to each array's
    estimated line traffic. Always present (empty for passes that do not
    publish a breakdown)."""
    if entries is None:
        return
    for i, entry in enumerate(entries):
        entry_path = f"{path}[{i}]"
        name = c.field(entry, entry_path, "name", str)
        if name == "":
            c.fail(entry_path + ".name", "empty array name")
        for key in ("bytes_before", "bytes_after"):
            value = c.field(entry, entry_path, key, int)
            if value is not None and value < 0:
                c.fail(f"{entry_path}.{key}", f"negative byte count {value}")


def check_pass(c: Checker, record: object, path: str) -> None:
    for key in ("pass", "label"):
        name = c.field(record, path, key, str)
        if name == "":
            c.fail(f"{path}.{key}", "empty name")
    c.field(record, path, "changed", bool)
    for key in ("wall_ms", "verify_ms"):
        ms = c.field(record, path, key, (int, float))
        if ms is not None and ms < 0:
            c.fail(f"{path}.{key}", f"negative duration {ms}")
    check_ir_stats(c, c.field(record, path, "ir_before", dict), path + ".ir_before")
    check_ir_stats(c, c.field(record, path, "ir_after", dict), path + ".ir_after")

    # Predicted traffic: -1 marks "not computed" (--no-traffic-deltas);
    # otherwise before - after must equal the recorded delta.
    before = c.field(record, path, "traffic_bound_before_bytes", int)
    after = c.field(record, path, "traffic_bound_after_bytes", int)
    delta = c.field(record, path, "traffic_bound_delta_bytes", int)
    if before is not None and after is not None and delta is not None:
        if (before < 0) != (after < 0):
            c.fail(path, "traffic bound computed on only one side of the pass")
        if before >= 0 and after >= 0 and after - before != delta:
            c.fail(
                path,
                f"traffic_bound_delta_bytes {delta} != after - before "
                f"({after} - {before})",
            )

    check_verify(c, record.get("verify") if isinstance(record, dict) else None,
                 path + ".verify")
    check_per_array(c, c.field(record, path, "per_array", list),
                    path + ".per_array")
    remarks = c.field(record, path, "remarks", list)
    severities = []
    if remarks is not None:
        for i, remark in enumerate(remarks):
            severity = check_remark(c, remark, f"{path}.remarks[{i}]")
            if severity is not None:
                severities.append(severity)
    return severities


def check_report(c: Checker, report: object) -> list[str]:
    schema = c.field(report, "$", "schema", str)
    if schema is not None and schema != SCHEMA:
        c.fail("$.schema", f"expected '{SCHEMA}', got '{schema}'")
    c.field(report, "$", "program", str)
    c.field(report, "$", "pipeline", str)
    cache = c.field(report, "$", "analysis_cache", dict)
    if cache is not None:
        for key in ("hits", "misses", "invalidations"):
            value = c.field(cache, "$.analysis_cache", key, int)
            if value is not None and value < 0:
                c.fail(f"$.analysis_cache.{key}", f"negative count {value}")
    severities = []
    passes = c.field(report, "$", "passes", list)
    if passes is not None:
        if not passes:
            c.fail("$.passes", "empty pipeline: no passes ran")
        for i, record in enumerate(passes):
            severities += check_pass(c, record, f"$.passes[{i}]")
    return severities


def main(argv: list[str]) -> int:
    fail_on = None
    args = []
    for arg in argv[1:]:
        if arg.startswith("--fail-on="):
            fail_on = arg.split("=", 1)[1]
            if fail_on not in REMARK_SEVERITIES:
                print(f"unknown --fail-on severity '{fail_on}'", file=sys.stderr)
                return 2
        else:
            args.append(arg)
    if len(args) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    source = open(args[0]) if len(args) == 1 else sys.stdin
    try:
        report = json.load(source)
    except json.JSONDecodeError as err:
        print(f"not valid JSON: {err}", file=sys.stderr)
        return 1
    finally:
        if source is not sys.stdin:
            source.close()

    checker = Checker()
    severities = check_report(checker, report)
    if checker.errors:
        for error in checker.errors:
            print(f"SCHEMA VIOLATION {error}", file=sys.stderr)
        return 1
    if fail_on is not None:
        threshold = REMARK_SEVERITIES.index(fail_on)
        flagged = [s for s in severities
                   if REMARK_SEVERITIES.index(s) >= threshold]
        if flagged:
            print(
                f"{len(flagged)} finding(s) at severity >= {fail_on}",
                file=sys.stderr,
            )
            return 1
    count = len(report.get("passes", []))
    print(f"remarks schema ok: {count} pass record(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
