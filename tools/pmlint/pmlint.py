#!/usr/bin/env python3
"""pmlint — NVMM store-discipline linter for the Simurgh tree.

Persistent-memory code has a failure mode ordinary static analysis never
looks for: a store that is *correct* in DRAM but silently non-durable,
because it never reached a flush (`nvmm::persist` / `nvmm::nt_copy`) or was
not ordered before its commit record by a fence.  The crash-image harness
(src/nvmm/shadow.h) makes such stores visibly disappear, but only for the
states a test happens to explore; pmlint enforces the discipline at the
source level, on every path.

Rules (each can be waived inline, see below):

  raw-mutex            std::mutex / std::lock_guard / std::unique_lock /
                       std::scoped_lock / std::shared_* in src/.  All
                       blocking synchronisation must go through the
                       annotated wrappers in common/thread_annotations.h
                       (common::Mutex / common::MutexLock) so the Clang
                       thread-safety analysis sees every acquisition.

  raw-device-store     memset / memcpy / memmove whose *destination* is
                       device-mapped memory (an expression naming the
                       device via .at( / ->at( / .base()) with no
                       nvmm::persist of that region within the next few
                       lines.  Plain stores into NVMM are lost on crash;
                       the two real bugs this rule caught (fresh-block
                       zero-fill, pool-segment scrub) are pinned by
                       tests/test_persist_discipline.cc.
                       src/nvmm/ itself is exempt: it *implements* the
                       flush primitives.

  fence-before-commit  A committing store that arms a journal/rename log
                       (`<word>.state.store(` / `committed_seq.store(`)
                       with no fence() / persist_now( earlier in the same
                       function.  The §4.3 protocol is: persist payload,
                       fence, then arm — an unfenced arm lets the commit
                       record land before its payload.

  rmw-persist          An atomic RMW on a persistent object's two-bit
                       `flags` word (compare_exchange / fetch_*) with no
                       persist within the next few lines.  The flag
                       protocol (alloc/layout.h) is only crash-consistent
                       if every transition is flushed before it is relied
                       on.

  env-read             getenv( in src/.  Every process mounting an image
                       must run it with the same policy, so the library
                       takes no configuration from its environment: a
                       setting is a constant or a runtime setter.  The few
                       deliberate reads (the opt-in timing model, bench
                       sizing) carry waivers.

Waivers: append `// pmlint: allow(<rule>) <justification>` to the flagged
line, or put it on the line directly above.  The justification is
mandatory; a bare allow() is itself reported.

Engines: the default engine is a self-contained tokenizer (no third-party
dependencies — it must run in a bare container).  When python bindings for
libclang are importable and a compile_commands.json is given with
--compdb, `--engine clang` re-checks raw-mutex over real token streams;
the tokenizer engine remains authoritative for the store rules either way.

Exit status: 0 clean, 1 findings, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

RULES = {
    "raw-mutex": "raw std:: mutex/lock in annotated tree",
    "raw-device-store": "unflushed memset/memcpy/memmove into device memory",
    "fence-before-commit": "commit-word store with no earlier fence in function",
    "rmw-persist": "atomic flags RMW with no nearby persist",
    "env-read": "getenv( — configuration read from the environment",
}

# Lookahead windows (lines) for the proximity rules.  Generous enough for a
# justification comment between store and flush, tight enough that the
# flush is still obviously paired with the store.
DEVICE_STORE_WINDOW = 10
RMW_WINDOW = 6

WAIVER_RE = re.compile(
    r"//\s*pmlint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)\s*(.*)$")

RAW_MUTEX_RE = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b")

MEM_FN_RE = re.compile(r"\b(?:std::)?(memset|memcpy|memmove)\s*\(")

DEVICE_EXPR_RE = re.compile(r"\bdev\w*(\(\))?\s*(\.|->)\s*(at\s*\(|base\s*\()")

COMMIT_STORE_RE = re.compile(r"\b\w+\.state\.store\(|\bcommitted_seq\.store\(")

FENCE_RE = re.compile(r"\bfence\s*\(\s*\)|\bpersist_now\s*\(")

RMW_RE = re.compile(r"\bflags\.(compare_exchange_\w+|fetch_\w+)\s*\(")

PERSIST_RE = re.compile(r"\bpersist(_now|_obj)?\s*\(|\bnt_copy\s*\(")

ENV_READ_RE = re.compile(r"\b(?:secure_)?getenv\s*\(")

# Column-0 lines that start a new function body region in a .cc file — a
# cheap but reliable proxy for function boundaries in this codebase, whose
# style always puts definitions at column zero.
REGION_START_RE = re.compile(r"^[A-Za-z_].*\(|^\}")


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def render(self, root: str) -> str:
        rel = os.path.relpath(self.path, root)
        return f"{rel}:{self.line}: {self.rule}: {self.message}"


def scrub(text: str) -> list[str]:
    """Blank out comments and string/char literal contents, preserving the
    line structure so findings keep their line numbers."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line-comment | block-comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line-comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block-comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line-comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block-comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c)
            elif c == "\n":  # unterminated (macro line continuation etc.)
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out).split("\n")


def parse_waivers(raw_lines: list[str], path: str,
                  findings: list[Finding]) -> dict[int, set[str]]:
    """Returns {0-based line: set(rules waived)}.  A waiver covers its own
    line and the next line, so it can trail the flagged statement or sit on
    a comment line directly above it."""
    waived: dict[int, set[str]] = {}
    for idx, line in enumerate(raw_lines):
        m = WAIVER_RE.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",")}
        unknown = rules - set(RULES)
        if unknown:
            findings.append(Finding(path, idx + 1, "bad-waiver",
                                    f"unknown rule(s) {sorted(unknown)}"))
        if not m.group(2).strip():
            findings.append(Finding(path, idx + 1, "bad-waiver",
                                    "waiver without a justification"))
            continue
        for tgt in (idx, idx + 1):
            waived.setdefault(tgt, set()).update(rules)
    return waived


def first_arg(lines: list[str], row: int, col: int) -> str:
    """Extract the first argument of a call whose opening paren is at
    (row, col), spanning up to three physical lines."""
    text = "\n".join(lines[row:row + 3])
    # Re-find the paren in the joined text.
    pos = col
    depth = 0
    start = None
    for i in range(pos, len(text)):
        c = text[i]
        if c == "(":
            depth += 1
            if depth == 1:
                start = i + 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return text[start:i]
        elif c == "," and depth == 1:
            return text[start:i]
    return text[start:] if start is not None else ""


def check_file(path: str, raw: str, findings: list[Finding]) -> None:
    raw_lines = raw.split("\n")
    lines = scrub(raw)
    waived = parse_waivers(raw_lines, path, findings)
    in_nvmm = f"{os.sep}nvmm{os.sep}" in path
    is_annotations_hdr = path.endswith(
        os.path.join("common", "thread_annotations.h"))

    def report(idx: int, rule: str, message: str) -> None:
        if rule in waived.get(idx, set()):
            return
        findings.append(Finding(path, idx + 1, rule, message))

    # Precompute function regions for fence-before-commit (only meaningful
    # in implementation files; headers here hold no commit protocols).
    region_of = [0] * len(lines)
    region = 0
    for idx, line in enumerate(lines):
        if REGION_START_RE.match(line):
            region += 1
        region_of[idx] = region

    for idx, line in enumerate(lines):
        if not is_annotations_hdr and RAW_MUTEX_RE.search(line):
            report(idx, "raw-mutex",
                   "use common::Mutex / common::MutexLock "
                   "(common/thread_annotations.h) so the thread-safety "
                   "analysis sees this lock")

        if not in_nvmm:
            for m in MEM_FN_RE.finditer(line):
                dest = first_arg(lines, idx, m.end() - 1)
                if not DEVICE_EXPR_RE.search(dest):
                    continue
                window = lines[idx:idx + DEVICE_STORE_WINDOW]
                if not any(PERSIST_RE.search(l) for l in window):
                    report(idx, "raw-device-store",
                           f"{m.group(1)} into device-mapped memory with no "
                           f"persist within {DEVICE_STORE_WINDOW} lines — "
                           "plain stores are lost on crash")

        if COMMIT_STORE_RE.search(line):
            fenced = any(
                FENCE_RE.search(lines[j])
                for j in range(idx - 1, -1, -1)
                if region_of[j] == region_of[idx])
            if not fenced:
                report(idx, "fence-before-commit",
                       "commit-word store with no fence()/persist_now( "
                       "earlier in this function — the payload may land "
                       "after its commit record")

        if RMW_RE.search(line):
            window = lines[idx:idx + RMW_WINDOW]
            if not any(PERSIST_RE.search(l) for l in window):
                report(idx, "rmw-persist",
                       f"atomic flags RMW with no persist within "
                       f"{RMW_WINDOW} lines — the flag transition is not "
                       "crash-durable")

        if ENV_READ_RE.search(line):
            report(idx, "env-read",
                   "configuration read from the environment — use a "
                   "constant or a runtime setter so every mount of an "
                   "image runs the same policy")


def clang_recheck_raw_mutex(paths: list[str], compdb_dir: str,
                            findings: list[Finding]) -> bool:
    """Optional second engine: token streams from libclang, immune to any
    scrubber bug.  Returns False (engine unavailable) without complaint if
    the bindings or the compilation database are missing."""
    try:
        from clang import cindex  # type: ignore
    except Exception:
        return False
    try:
        db = cindex.CompilationDatabase.fromDirectory(compdb_dir)
        index = cindex.Index.create()
    except Exception:
        return False
    wanted = {os.path.abspath(p) for p in paths}
    for cmd in db.getAllCompileCommands() or []:
        f = os.path.abspath(cmd.filename)
        if f not in wanted:
            continue
        args = [a for a in cmd.arguments][1:-1]
        try:
            tu = index.parse(f, args=args)
        except Exception:
            continue
        toks = list(tu.get_tokens(extent=tu.cursor.extent))
        for i, t in enumerate(toks):
            if t.spelling not in ("mutex", "lock_guard", "unique_lock",
                                  "scoped_lock", "shared_lock",
                                  "shared_mutex"):
                continue
            if i >= 2 and toks[i - 1].spelling == "::" and \
                    toks[i - 2].spelling == "std":
                loc = t.location
                if os.path.abspath(loc.file.name) in wanted:
                    findings.append(Finding(
                        loc.file.name, loc.line, "raw-mutex",
                        "std::" + t.spelling + " (libclang engine)"))
    return True


def collect_sources(roots: list[str]) -> list[str]:
    out = []
    for root in roots:
        if os.path.isfile(root):
            out.append(root)
            continue
        for dirpath, _, names in os.walk(root):
            for name in sorted(names):
                if name.endswith((".cc", ".h", ".hpp", ".cpp")):
                    out.append(os.path.join(dirpath, name))
    return sorted(set(out))


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="pmlint", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*", help="files or directories to lint "
                    "(default: <repo>/src)")
    ap.add_argument("--root", default=None, help="repo root for relative "
                    "finding paths (default: two levels above this script)")
    ap.add_argument("--engine", choices=("tokenizer", "clang"),
                    default="tokenizer",
                    help="clang adds a libclang re-check of raw-mutex when "
                    "the bindings are available (falls back silently)")
    ap.add_argument("--compdb", default=None,
                    help="directory holding compile_commands.json "
                    "(clang engine only)")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule, desc in RULES.items():
            print(f"{rule:22} {desc}")
        return 0

    script_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.abspath(args.root or os.path.join(script_dir, "..", ".."))
    roots = args.paths or [os.path.join(root, "src")]
    for r in roots:
        if not os.path.exists(r):
            print(f"pmlint: no such path: {r}", file=sys.stderr)
            return 2

    sources = collect_sources(roots)
    findings: list[Finding] = []
    for path in sources:
        with open(path, encoding="utf-8", errors="replace") as f:
            check_file(os.path.abspath(path), f.read(), findings)

    if args.engine == "clang":
        compdb = args.compdb or os.path.join(root, "build")
        used = clang_recheck_raw_mutex(sources, compdb, findings)
        if not used:
            print("pmlint: libclang engine unavailable; "
                  "tokenizer results only", file=sys.stderr)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in findings:
        print(f.render(root))
    n = len(findings)
    print(f"pmlint: {n} finding{'s' if n != 1 else ''} "
          f"in {len(sources)} files")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
