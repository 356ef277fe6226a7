#!/usr/bin/env python3
"""Determinism linter for the DejaVu C++ tree.

Every PR stakes its correctness on one invariant: sweep digests are
bit-identical at any thread count. A single stray ``rand()``,
wall-clock read, or unordered-container iteration feeding a digest
would only surface as a flaky parity failure at fleet scale — so this
linter bans nondeterminism *sources* statically:

``rng``
    ``rand()`` / ``srand()`` / ``std::random_device`` /
    ``std::mt19937`` and friends anywhere outside ``common/random.*``
    — all stochastic behaviour flows through the seeded ``Rng``.
``wall-clock``
    ``time()``, ``clock()``, ``gettimeofday``, ``clock_gettime``,
    ``getrusage`` and the ``<chrono>`` clocks outside
    ``common/stats.*`` and ``obs/wall_clock.*`` — simulated time
    comes from the EventQueue, and the only sanctioned host-side
    measurements (peak RSS, bench wall time, wall-domain trace
    lanes) live in the stats helpers and the obs wall-clock shim.
``sleep``
    ``std::this_thread`` (sleeps / yields) and the POSIX
    ``sched_yield`` / ``usleep`` / ``nanosleep`` — timing-dependent
    scheduling has no place in a deterministic simulator.
``raw-new``
    raw ``new`` expressions — ownership goes through
    ``std::make_unique`` / containers; a raw ``new`` is either a leak
    (ASan's ``detect_leaks`` gate) or a double-delete waiting.
``unordered-iteration``
    range-for / ``.begin()`` iteration over ``std::unordered_map`` /
    ``std::unordered_set`` inside files that serialize state (write
    digests, CSVs, ``save()`` or ``toString()`` output). Hash-table
    order is not part of any contract; serializers must go through
    sorted-key helpers.
``layering``
    an ``#include "<module>/..."`` of a module that does not come
    before the including file's module in ``MODULE_ORDER`` (its own
    module is fine), and any file in a module directory the order
    does not list. The module of a file is the first directory below
    the linted tree (``src/``), so the include graph of ``src/``
    stays one-way: ``common`` at the bottom, ``serving`` on top.

The scanner is tokenizer-aware, not a grep: comments, string and
character literals (including raw strings) are stripped before any
rule runs, so ``"rand()"`` in a log message never fires.

Suppression: append ``// lint-allow(<rule>): <reason>`` to the
offending line, or place it on a comment-only line immediately above.
The reason is mandatory — a pragma without one is itself an error.

Self-test: ``--self-test`` lints the seeded-violation corpus under
``tools/lint/tests/`` and verifies the findings match the
``// expect(<rule>)`` markers exactly — every seeded violation must
be caught, and nothing else may fire.

Exit status: 0 clean, 1 findings (or self-test mismatch), 2 usage or
I/O error.
"""

import argparse
import os
import re
import sys

CXX_EXTENSIONS = (".cc", ".hh", ".cpp", ".hpp", ".h")

# The layers of src/, lowest first: a module may include its own
# headers and those of the modules before it, never one after it.
MODULE_ORDER = ("common", "obs", "ml", "sim", "workload", "services",
                "counters", "proxy", "core", "profiling", "baselines",
                "experiments", "serving")

# Files (matched by path suffix, "/"-normalized) that are allowed to
# use what a rule bans — the single sanctioned home of that construct.
RULES = {
    "rng": {
        "patterns": [
            r"\brand\s*\(",
            r"\bsrand\s*\(",
            r"\bstd\s*::\s*random_device\b",
            r"\bstd\s*::\s*mt19937(?:_64)?\b",
            r"\bstd\s*::\s*default_random_engine\b",
            r"\bstd\s*::\s*minstd_rand0?\b",
            r"\brandom_shuffle\b",
        ],
        "allowed": ["common/random.hh", "common/random.cc"],
        "message": "unseeded/system RNG; use the seeded dejavu::Rng "
                   "(common/random.hh)",
    },
    "wall-clock": {
        "patterns": [
            r"\btime\s*\(",
            r"\bclock\s*\(",
            r"\bgettimeofday\s*\(",
            r"\bclock_gettime\s*\(",
            r"\bgetrusage\s*\(",
            r"\bsystem_clock\b",
            r"\bsteady_clock\b",
            r"\bhigh_resolution_clock\b",
        ],
        "allowed": ["common/stats.hh", "common/stats.cc",
                    "obs/wall_clock.hh", "obs/wall_clock.cc"],
        "message": "wall-clock read; simulated time comes from the "
                   "EventQueue, host-side measurement belongs in "
                   "common/stats.* or obs/wall_clock.*",
    },
    "sleep": {
        "patterns": [
            r"\bstd\s*::\s*this_thread\b",
            r"\bsched_yield\s*\(",
            r"\busleep\s*\(",
            r"\bnanosleep\s*\(",
        ],
        "allowed": [],
        "message": "sleep/yield; deterministic code must not depend "
                   "on host scheduling",
    },
    "raw-new": {
        "patterns": [r"\bnew\b"],
        "allowed": [],
        "message": "raw new expression; use std::make_unique or a "
                   "container",
    },
    "unordered-iteration": {
        "patterns": [],  # handled by the declaration-tracking pass
        "allowed": [],
        "message": "iteration over an unordered container in a "
                   "serializing file; hash order is not a contract — "
                   "go through a sorted-key helper",
    },
    "layering": {
        "patterns": [],  # handled by the include pass
        "allowed": [],
        "message": "a module includes only itself and the modules "
                   "before it in MODULE_ORDER",
    },
}

# A file "serializes" when it writes digests, CSVs, save() output or
# toString() renderings — the surfaces sweep digests are built from.
SERIALIZER_MARKERS = re.compile(
    r"\b(?:save|toString)\s*\(|[Cc]sv|[Dd]igest")

PRAGMA_RE = re.compile(r"lint-allow\(([\w-]+)\)(:?)")
EXPECT_RE = re.compile(r"expect\(([\w-]+)\)")


class LintError(Exception):
    """Fatal usage/configuration problem (exit 2)."""


def strip_code(text):
    """Blank comments and string/char literals, preserving layout.

    Returns (code, comments) where ``code`` is ``text`` with every
    comment and literal body replaced by spaces (newlines kept, so
    line/column arithmetic holds) and ``comments`` is a list of
    (start_line, is_own_line, comment_text) tuples. 1-based lines.
    """
    out = []
    comments = []
    i, n = 0, len(text)
    line = 1
    line_had_code = False

    def blank(ch):
        return ch if ch == "\n" else " "

    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            start_line, own_line = line, not line_had_code
            j = i
            while j < n and text[j] != "\n":
                j += 1
            comments.append((start_line, own_line, text[i:j]))
            out.append(" " * (j - i))
            i = j
        elif ch == "/" and nxt == "*":
            start_line, own_line = line, not line_had_code
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            comments.append((start_line, own_line, text[i:j]))
            for k in range(i, j):
                out.append(blank(text[k]))
                if text[k] == "\n":
                    line += 1
            i = j
        elif ch == "R" and nxt == '"':
            # Raw string: R"delim( ... )delim"
            m = re.match(r'R"([^()\\ ]{0,16})\(', text[i:])
            if not m:
                out.append(ch)
                line_had_code = True
                i += 1
                continue
            close = ")" + m.group(1) + '"'
            j = text.find(close, i + m.end())
            j = n if j < 0 else j + len(close)
            for k in range(i, j):
                out.append(blank(text[k]))
                if text[k] == "\n":
                    line += 1
            line_had_code = True
            i = j
        elif ch == '"' or ch == "'":
            quote = ch
            out.append(" ")
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\":
                    j += 1
                j += 1
            j = min(j + 1, n)
            for k in range(i + 1, j):
                out.append(blank(text[k]))
                if text[k] == "\n":
                    line += 1
            line_had_code = True
            i = j
        else:
            out.append(ch)
            if ch == "\n":
                line += 1
                line_had_code = False
            elif not ch.isspace():
                line_had_code = True
            i += 1
    return "".join(out), comments


def comment_markers(comments, regex, path):
    """Map marker occurrences in comments to the code lines they
    govern: the comment's own line, or — for a comment-only line —
    the line immediately below the comment."""
    markers = {}
    for start_line, own_line, body in comments:
        for m in regex.finditer(body):
            if regex is PRAGMA_RE:
                tail = body[m.end():].strip()
                if m.group(2) != ":" or not tail:
                    raise LintError(
                        f"{path}:{start_line}: lint-allow("
                        f"{m.group(1)}) needs a ': <reason>'")
            target = start_line
            if own_line:
                target = start_line + body.count("\n") + 1
            markers.setdefault(target, set()).add(m.group(1))
    return markers


def skip_angles(code, i):
    """Given code[i] == '<', return the index just past the matching
    '>' (best effort; stops at ';' or '{' to bound damage)."""
    depth = 0
    while i < len(code):
        ch = code[i]
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif ch in ";{":
            return i
        i += 1
    return i


def tracked_unordered_names(code):
    """Names (variables, members, type aliases) declared with an
    unordered container type in ``code``. Heuristic and intentionally
    over-approximate: tracking a name that is never iterated costs
    nothing."""
    aliases = set()
    names = set()
    decl_re = re.compile(r"\bstd\s*::\s*unordered_(?:map|set)\s*")
    for m in decl_re.finditer(code):
        i = m.end()
        if i < len(code) and code[i] == "<":
            i = skip_angles(code, i)
        tail = code[i:]
        # `using Alias = std::unordered_map<...>;` names an alias.
        before = code[:m.start()]
        alias_m = re.search(r"(?:using|typedef)\s+(\w+)\s*=\s*$",
                            before)
        if alias_m:
            aliases.add(alias_m.group(1))
            continue
        var_m = re.match(r"\s*[&*]?\s*(\w+)\s*[;({=,)]", tail)
        if var_m:
            names.add(var_m.group(1))
    for alias in aliases:
        # `Alias name;`, `const Alias &ref = ...`, `Alias name = ...`
        for m in re.finditer(
                r"\b" + re.escape(alias) + r"\s*[&*]?\s*(\w+)\s*[;=({]",
                code):
            names.add(m.group(1))
    names.discard("")
    return names, aliases


RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;()]*(?:\([^()]*\)[^;()]*)*)"
                          r":([^;)]*)\)")
BEGIN_RE = re.compile(r"\b(\w+)\s*\.\s*c?r?begin\s*\(")


def unordered_iteration_findings(code, sibling_code):
    """Line numbers (with offending name) of unordered iteration."""
    harvest = code if sibling_code is None else code + "\n" + sibling_code
    names, _aliases = tracked_unordered_names(harvest)
    findings = []
    if not names:
        return findings
    word = re.compile(r"\b(" + "|".join(
        re.escape(n) for n in sorted(names)) + r")\b")
    for m in RANGE_FOR_RE.finditer(code):
        hit = word.search(m.group(2))
        if hit:
            line = code.count("\n", 0, m.start()) + 1
            findings.append((line, hit.group(1)))
    for m in BEGIN_RE.finditer(code):
        if m.group(1) in names:
            line = code.count("\n", 0, m.start()) + 1
            findings.append((line, m.group(1)))
    return findings


INCLUDE_RE = re.compile(r'\s*#\s*include\s*["<](\w+)/')


def layering_findings(code, text, module):
    """(line, detail) for each include of a module that comes after
    @p module in MODULE_ORDER, or one finding on line 1 when the order
    does not list @p module. The include path is read from the raw
    line, since strip_code blanks string literals; the stripped line
    must still start with #include, so commented-out includes pass."""
    findings = []
    if module not in MODULE_ORDER:
        findings.append(
            (1, f"module directory '{module}/' is not in "
                f"MODULE_ORDER; list it where its includes allow"))
        return findings
    rank = MODULE_ORDER.index(module)
    raw_lines = text.split("\n")
    for number, line in enumerate(code.split("\n"), start=1):
        if not re.match(r"\s*#\s*include\b", line):
            continue
        m = INCLUDE_RE.match(raw_lines[number - 1])
        if not m or m.group(1) not in MODULE_ORDER:
            continue
        target = m.group(1)
        if MODULE_ORDER.index(target) > rank:
            findings.append(
                (number, f"{module}/ includes {target}/, a later "
                         f"module; " + RULES["layering"]["message"]))
    return findings


def is_allowed_path(path, allowed):
    norm = path.replace(os.sep, "/")
    return any(norm.endswith(suffix) for suffix in allowed)


def sibling_header(path):
    base, ext = os.path.splitext(path)
    if ext not in (".cc", ".cpp"):
        return None
    for hext in (".hh", ".hpp", ".h"):
        if os.path.exists(base + hext):
            return base + hext
    return None


def lint_file(path, text=None, module=None):
    """Lint one file; returns a list of (line, rule, detail).
    @p module names the file's module for the layering rule (None
    skips it)."""
    if text is None:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            raise LintError(f"cannot read {path}: {err}")
    code, comments = strip_code(text)
    allows = comment_markers(comments, PRAGMA_RE, path)
    findings = []

    def allowed(line, rule):
        return rule in allows.get(line, ())

    for rule_id, rule in RULES.items():
        if is_allowed_path(path, rule["allowed"]):
            continue
        for pattern in rule["patterns"]:
            for m in re.finditer(pattern, code):
                line = code.count("\n", 0, m.start()) + 1
                if not allowed(line, rule_id):
                    findings.append((line, rule_id, rule["message"]))

    if SERIALIZER_MARKERS.search(code):
        sibling = sibling_header(path)
        sibling_code = None
        if sibling:
            with open(sibling, encoding="utf-8") as fh:
                sibling_code, _ = strip_code(fh.read())
        for line, name in unordered_iteration_findings(
                code, sibling_code):
            if not allowed(line, "unordered-iteration"):
                findings.append(
                    (line, "unordered-iteration",
                     f"'{name}' is an unordered container; " +
                     RULES["unordered-iteration"]["message"]))

    if module is not None:
        for line, detail in layering_findings(code, text, module):
            if not allowed(line, "layering"):
                findings.append((line, "layering", detail))
    return sorted(set(findings))


def collect_files(paths):
    """Sorted (file, module) pairs. Under a directory argument a
    file's module is its first directory below that argument (None
    at the top level); a file named directly takes its parent
    directory as module when the order lists it."""
    files = {}
    for path in paths:
        if os.path.isfile(path):
            parent = os.path.basename(
                os.path.dirname(os.path.abspath(path)))
            files[path] = parent if parent in MODULE_ORDER else None
        elif os.path.isdir(path):
            for root, _dirs, names in os.walk(path):
                rel = os.path.relpath(root, path)
                module = None if rel == "." else rel.split(os.sep)[0]
                for name in sorted(names):
                    if name.endswith(CXX_EXTENSIONS):
                        files[os.path.join(root, name)] = module
        else:
            raise LintError(f"no such file or directory: {path}")
    return sorted(files.items())


def discard_stdout():
    """Point stdout at /dev/null (the Python docs' SIGPIPE note):
    later writes, and the flush at exit, then succeed silently."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def emit(text=""):
    """print() that outlives a reader who closed the pipe early
    (``determinism_lint.py src | head -1``): the rest of the output
    is discarded and the run finishes, so the exit status still tells
    findings (1) from a clean tree (0)."""
    try:
        print(text)
    except BrokenPipeError:
        discard_stdout()


def run_lint(paths):
    failures = 0
    for path, module in collect_files(paths):
        for line, rule, detail in lint_file(path, module=module):
            failures += 1
            emit(f"{path}:{line}: [{rule}] {detail} "
                 f"(suppress: // lint-allow({rule}): <reason>)")
    if failures:
        emit(f"\n{failures} determinism-lint finding(s)")
        return 1
    return 0


def run_self_test(corpus_dir):
    """Lint the corpus; findings must equal the expect() markers."""
    files = collect_files([corpus_dir])
    if not files:
        raise LintError(f"self-test corpus is empty: {corpus_dir}")
    mismatches = 0
    checked = 0
    for path, module in files:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        _code, comments = strip_code(text)
        expected = comment_markers(comments, EXPECT_RE, path)
        expect_set = {(line, rule)
                      for line, rules in expected.items()
                      for rule in rules}
        found_set = {(line, rule)
                     for line, rule, _ in lint_file(path, text, module)}
        checked += len(expect_set)
        for line, rule in sorted(expect_set - found_set):
            mismatches += 1
            emit(f"MISSED  {path}:{line}: seeded [{rule}] violation "
                 f"not caught")
        for line, rule in sorted(found_set - expect_set):
            mismatches += 1
            emit(f"SPURIOUS {path}:{line}: unexpected [{rule}] "
                 f"finding")
    emit(f"self-test: {len(files)} corpus file(s), {checked} seeded "
         f"violation(s), {mismatches} mismatch(es)")
    return 1 if mismatches else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint "
                             "(e.g. src/)")
    parser.add_argument("--self-test", action="store_true",
                        help="lint the seeded-violation corpus and "
                             "verify every violation is caught")
    args = parser.parse_args()

    try:
        if args.self_test:
            corpus = os.path.join(os.path.dirname(
                os.path.abspath(__file__)), "tests")
            return run_self_test(corpus)
        if not args.paths:
            parser.error("give at least one path to lint "
                         "(or --self-test)")
        return run_lint(args.paths)
    except LintError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    status = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        discard_stdout()
    sys.exit(status)
