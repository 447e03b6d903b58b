"""Run the tier-1 suite against one-line mutants of ``src/pocfvs``.

Each mutant replaces one exact string in one source file. For each mutant
the script copies ``src/`` to a temporary directory, applies the mutant
there, and runs ``pytest -x`` on ``tests/`` with that copy first on
``PYTHONPATH``. A failing run kills the mutant; the working tree is never
modified. A run that outlasts ``TIMEOUT_S`` is reported as a timeout and
counted apart from the kills. A mutant whose original text no longer
occurs exactly once is reported as stale, so the list cannot silently
drift from the code.

Usage, from anywhere (stdlib only; pytest and the test dependencies must
be importable)::

    python tools/mutation_sweep.py

The exit status is 1 when a mutant not listed in ``EQUIVALENT`` survives,
or when a mutant is stale.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> (file under src/pocfvs, original text, mutated text)
MUTANTS = {
    "region-maxge": (
        "cover.py",
        'if tag == "maxge" and hi >= region[1]:',
        'if tag == "maxge" and hi > region[1]:',
    ),
    "region-minmax": (
        "cover.py",
        'if tag == "minmax" and lo >= region[1] and hi >= region[2]:',
        'if tag == "minmax" and lo > region[1] and hi >= region[2]:',
    ),
    "test-bound": (
        "cover.py",
        "return max(4, max(params, default=3) + 1)",
        "return max(4, max(params, default=3))",
    ),
    "profile-cap": (
        "cover.py",
        "if len(tadpoles) + len(spiders) > 2:",
        "if len(tadpoles) + len(spiders) > 3:",
    ),
    "class-iii-constant": ("cover.py", "constant=4 * n_ctx,", "constant=4 * n_ctx + 1,"),
    "p5sp1-constant": (
        "constructive.py",
        "return 3 * s_param + 10 if s_param else 3",
        "return 3 * s_param + 9 if s_param else 3",
    ),
    # keeps the s = 0 refusal, where a P_5 alone breaks the precondition,
    # so only an input at s >= 1 can kill it
    "p5sp1-precondition-dropped": (
        "constructive.py",
        "if p5_hit is not None and not is_free(g, [path(5) + s_param * path(1)]):",
        "if p5_hit is not None and not s_param:",
    ),
    "triangle-early-exit": (
        "solvers.py",
        "b = (inner & -inner).bit_length() - 1",
        "b = inner.bit_length() - 1",
    ),
    "max-order-value": ("graph.py", "MAX_ORDER = 512", "MAX_ORDER = 511"),
    "class-reason": (
        "harness.py",
        '"class-i": "embeds in a 3-vertex path; the two optima always coincide",',
        '"class-i": "embeds in a 3-vertex path",',
    ),
    "sp3-middle-count": (
        "constructive.py",
        "if deg2.bit_count() > 4 * s_param:",
        "if deg2.bit_count() > 4 * s_param + 1:",
    ),
    # move_step runs the same s*P_3 check; the line before makes it unique
    "sp3-public-precondition": (
        "constructive.py",
        'connectification needs a connected graph")\n'
        "    if _p3_copies(s_param).find(g) is not None:",
        'connectification needs a connected graph")\n'
        "    if _p3_copies(s_param).find(g) is not None and False:",
    ),
    # move_step's non-FVS seeds must be recorded, not checkpointed
    "move-seed-flag": (
        "constructive.py",
        "seed_is_fvs = g.mask_is_acyclic(g.full_mask & ~s_mask)",
        "seed_is_fvs = True",
    ),
    "checkpoint-fvs-test": (
        "constructive.py",
        "if not g.mask_is_acyclic(g.full_mask & ~mask):",
        "if not g.mask_is_acyclic(g.full_mask & ~mask) and False:",
    ),
    "max-order-check": ("graph.py", "if n > MAX_ORDER:", "if n > MAX_ORDER + 1:"),
    "singleton-split-order": ("iso.py", "out += (low, high)", "out += (high, low)"),
    "discrete-root": ("iso.py", "if len(root) == n:", "if len(root) >= n - 1:"),
    "twin-exit-test": (
        "iso.py",
        "if all(masks[u] & ~(1 << v) == masks[v] & ~(1 << u) for u, v in pairs):",
        "if any(masks[u] & ~(1 << v) == masks[v] & ~(1 << u) for u, v in pairs):",
    ),
    "twin-transposition": ("iso.py", "p[u], p[v] = v, u", "p[u], p[v] = u, v"),
    "matcher-twin-bound": (
        "iso.py",
        "cands &= -(2 << assignment[twin[idx]])",
        "cands &= (1 << assignment[twin[idx]]) - 1",
    ),
    "spec-echo-cut": ("generators.py", "if len(quoted) <= 32:", "if len(quoted) <= 32000:"),
    "spec-copy-count-dropped": (
        "generators.py",
        'return FamilySpec("copies", (_spec_int(count),), (atom,)) if count else atom',
        "return atom",
    ),
    "spec-arity-unchecked": (
        "generators.py",
        "if arity is not None and len(spec.params) != arity:",
        "if False:",
    ),
    "spec-list-comma-split": (
        "generators.py",
        'return tuple(map(parse_spec, text.split(";")))',
        'return tuple(map(parse_spec, text.split(",")))',
    ),
    "spec-blank-entry": (
        "generators.py",
        'return tuple(map(parse_spec, text.split(";")))',
        'return tuple(parse_spec(p) for p in text.split(";") if p.strip())',
    ),
    "spec-leading-zero": (
        "generators.py",
        'if len(unsigned) > 1 and unsigned[0] == "0":',
        "if False:",
    ),
    "spec-signed-zero": ("generators.py", 'if digits == "-0":', "if False:"),
    "spec-param-empty-field": ("generators.py", r"(?:,-?\d+)*", r"(?:,-?\d*)*"),
    "spec-unicode-digits": ("generators.py", "re.IGNORECASE | re.ASCII", "re.IGNORECASE"),
    "usage-echo-bare": (
        "cli.py",
        "shown = shown.replace(repr(text), cut).replace(text, cut)",
        "shown = shown.replace(repr(text), cut)",
    ),
    "usage-echo-option-value": (
        "cli.py",
        'for text in (arg, arg.partition("=")[2])}',
        "for text in (arg,)}",
    ),
    "usage-choices-kept": (
        "cli.py",
        'shown = shown.split(" (choose from ")[0]',
        "shown = shown",
    ),
    "range-echo-cut": ("cli.py", "got = _shown(args.range)", "got = repr(args.range)"),
    "graph6-row-order": (
        "graph6.py",
        "tuple(bit[i, j] for j in range(1, n) for i in range(j))",
        "tuple(bit[i, j] for i in range(n) for j in range(i + 1, n))",
    ),
    "orbit-union-root": (
        "harness.py",
        "root[max(a, b)] = min(a, b)",
        "root[min(a, b)] = max(a, b)",
    ),
    "level-sort-key": (
        "harness.py",
        "bytes(top - i for i in reversed([*iter_bits(c)]))",
        "bytes(top - i for i in iter_bits(c))",
    ),
    "acyclic-parent-test": ("graph.py", "if seen & (seen - 1):", "if seen.bit_count() > 2:"),
    "component-mask": ("graph.py", "rest = mask & ~todo", "rest = ~todo"),
    "cfvs-accept-connected": ("solvers.py", "if rest:", "if rest & (rest - 1):"),
    # the walk's layer bound: over-cutting moves witnesses, and a bound that
    # never fires moves only the count of sets tried
    "cfvs-layer-strict": ("solvers.py", "if cost > need:", "if cost >= need:"),
    "cfvs-cycle-cut-dropped": (
        "solvers.py",
        "if cost > need:\n                    break",
        "if cost > need:\n                    return False",
    ),
    "cfvs-layer-cut-off": ("solvers.py", "if cost > need:", "if cost > need and False:"),
    "fvs-leaf-forest": (
        "solvers.py",
        "return [] if g.mask_is_acyclic(mask) else None",
        "return [] if g.mask_is_acyclic(mask & mask - 1) else None",
    ),
    "anchor-twin-bound": ("iso.py", "first = 0 if anchor is None else 1", "first = 0"),
    "anchor-orbits": (
        "iso.py",
        "[_Pattern(h, a) for a in _orbit_anchors(h)]",
        "[_Pattern(h, a) for a in _orbit_anchors(h)[:1]]",
    ),
    "hereditary-parent-check": (
        "harness.py",
        "if tuple(m & low for m in g._masks[:-1]) in kept and not through(g, n - 1)",
        "if not through(g, n - 1)",
    ),
    "record-memo-guard": ("harness.py", "_guard(g, limit)", "pass"),
    # a malformed limit must be refused even when no graph reaches a solver
    "record-limit-in-loop": (
        "harness.py",
        "limit = _resolved_limit(limit)\n    for g in graphs:\n",
        "for g in graphs:\n        limit = _resolved_limit(limit)\n",
    ),
    "family-memo-first-member": (
        "harness.py",
        "key = frozenset(map(canonical_form, family))",
        "key = frozenset(map(canonical_form, family[:1]))",
    ),
    "family-memo-labelled-key": (
        "harness.py",
        "key = frozenset(map(canonical_form, family))",
        "key = frozenset(family)",
    ),
    "family-memo-shared-lists": (
        "harness.py",
        "return [list(level) for level in _family_levels(key, n_max)]",
        "return list(_family_levels(key, n_max))",
    ),
    "record-memo-relabelled": ("harness.py", "if code is not None:", "if True:"),
    "upto-order-check": (
        "harness.py",
        '_check_count(n_max, "order", 1)',
        '_check_count(n_max, "order", 0)',
    ),
    # the top growth skips a candidate only when c - u is connected and its
    # class comes from a parent strictly earlier in the level below
    "growth-skip-inclusive": (
        "harness.py",
        "if row and extra & low and row[extra & low] < p:",
        "if row and extra & low and row[extra & low] <= p:",
    ),
    "growth-skip-disconnected": (
        "harness.py",
        "if row and extra & low and row[extra & low] < p:",
        "if row and row[extra & low] < p:",
    ),
    "report-json-materialised": (
        "harness.py",
        'return "".join(map("".join, iter(lambda: [*islice(chunks, 4096)], [])))',
        "return json.dumps(self.to_dict(timestamp), indent=2)",
    ),
    # a witness-memo hit must check the limit as a fresh solve would
    "witness-memo-guard": (
        "harness.py",
        "_guard(lk, limit)\n            optima = _WITNESS_OPTIMA.get(lk)\n"
        "            if optima is None:\n",
        "optima = _WITNESS_OPTIMA.get(lk)\n"
        "            if optima is None:\n                _guard(lk, limit)\n",
    ),
    "witness-memo-guard-butterfly": (
        "harness.py",
        "_guard(b, limit)\n            optima = _WITNESS_OPTIMA.get(b)\n"
        "            if optima is None:\n",
        "optima = _WITNESS_OPTIMA.get(b)\n"
        "            if optima is None:\n                _guard(b, limit)\n",
    ),
    "result-cut": ("verification.py", "failures[:5]", "failures[:6]"),
    "criterion-1-equality": ("verification.py", "if c != k + 1:", "if c < k + 1:"),
    "criterion-2-equality": ("verification.py", "if c != 2 * k + 1:", "if c < 2 * k + 1:"),
    # criterion 3 compares (fvs, cfvs) twice; the next line makes each unique
    "criterion-3-bipartite": (
        "verification.py",
        'if (f, c) != (2, 3):\n            failures.append(f"K_',
        'if f != 2:\n            failures.append(f"K_',
    ),
    "criterion-3-witness": (
        "verification.py",
        'if (f, c) != (2, 3):\n        failures.append(f"three_p1',
        'if f != 2:\n        failures.append(f"three_p1',
    ),
    "criterion-4-equality": ("verification.py", "if expect != got:", "if expect and not got:"),
    "criterion-5-equality": (
        "verification.py",
        "if res.bounded != expect_bounded:",
        "if res.bounded and not expect_bounded:",
    ),
    "criterion-6-equality": ("verification.py", "if got != expected:", "if got not in expected:"),
    "criterion-7-equality": ("verification.py", "if f != c:", "if f > c:"),
    "criterion-8-bound": (
        "verification.py",
        "elif len(result) > f + 3:",
        "elif len(result) > f + 4:",
    ),
    "criterion-9-bound": (
        "verification.py",
        "elif len(result) > f + 42:",
        "elif len(result) > f + 4200:",
    ),
    "criterion-10-bound": (
        "verification.py",
        "elif len(result) > bridge * f_res.optimum:",
        "elif len(result) > bridge * f_res.optimum + 1:",
    ),
    "criterion-11-equality": ("verification.py", "if (f, c) != (2, k + 1):", "if f != 2:"),
    "criterion-11-chain-difference": ("verification.py", "if d != k:", "if d > k:"),
    "criterion-12-raise": (
        "verification.py",
        'return CheckResult("subdivided-triangle-family", False, str(exc))',
        'return CheckResult("subdivided-triangle-family", True, str(exc))',
    ),
    "criterion-13-bound": ("verification.py", "if cds > 3 * ds - 2:", "if cds > 3 * ds - 1:"),
    "memo-key-dropped": ("iso.py", "key = _code(masks, order)", "key = _code(masks, order[:-1])"),
    "memo-key-labelled": (
        "iso.py",
        "key = _code(masks, order)",
        "key = _code(masks, tuple(range(len(masks))))",
    ),
}

# mutants no test can kill, and why
EQUIVALENT: dict[str, str] = {}

# a mutant that makes some search run forever is stopped here and reported
# as a timeout, which does not fail the sweep
TIMEOUT_S = 900


def run_mutant(name: str, scratch: Path) -> tuple[str, str]:
    """Return (verdict, detail) for one mutant: killed, timeout, survived or stale."""
    rel, old, new = MUTANTS[name]
    src = scratch / name / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    target = src / "pocfvs" / rel
    text = target.read_text()
    if text.count(old) != 1:
        return "stale", f"{rel} holds the original text {text.count(old)} times"
    target.write_text(text.replace(old, new))
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests"]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return "timeout", f"no result after {TIMEOUT_S} s"
    if proc.returncode == 0:
        return "survived", proc.stdout.strip().splitlines()[-1]
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return "killed", failed[0] if failed else f"pytest exit {proc.returncode}"


def main() -> int:
    verdicts = {}
    with tempfile.TemporaryDirectory(prefix="mutation-sweep-") as tmp:
        for name in MUTANTS:
            start = time.perf_counter()
            verdict, detail = run_mutant(name, Path(tmp))
            verdicts[name] = verdict
            took = time.perf_counter() - start
            print(f"{verdict:8} {name:20} {took:6.1f} s  {detail}", flush=True)
    killed = sum(v == "killed" for v in verdicts.values())
    timeouts = sum(v == "timeout" for v in verdicts.values())
    print(f"killed {killed} of {len(MUTANTS)}, timed out {timeouts}")
    for name in MUTANTS:
        if verdicts[name] == "survived" and name in EQUIVALENT:
            print(f"equivalent: {name}: {EQUIVALENT[name]}")
    bad = [n for n, v in verdicts.items() if v == "stale" or (v == "survived" and n not in EQUIVALENT)]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
