"""Render benchmarks/results/*.json into EXPERIMENTS.md.

Regenerates the text between each ``<!-- BEGIN name -->`` /
``<!-- END name -->`` pair — ``TABLE2_RESULTS``, ``TABLE2_SHAPE`` and
``PLAN_SPACE_RESULTS`` — with the measured tables and a paper-vs-ours
shape comparison (who wins each cell, and by what factor). Re-running it
on unchanged results leaves the file unchanged. Exits non-zero, naming
the section, if a marker pair is missing.

Usage:  python jobs/render_experiments.py
"""
import json
import os
import re
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")
RESULTS = os.path.join(ROOT, "benchmarks", "results")


def load(name):
    with open(os.path.join(RESULTS, f"{name}.json")) as f:
        return json.load(f)


def table2_md(rows):
    lines = [
        "| dataset | query | system | measured tput (e/s) | measured tail lat (s) "
        "| paper tput (e/s) | paper tail lat (s) |",
        "|---|---|---|---|---|---|---|",
    ]
    for r in rows:
        lines.append(
            f"| {r['dataset']} | {r['query']} | {r['system']} "
            f"| {r['throughput_eps']} | {r['tail_latency_s']} "
            f"| {r.get('paper_tput', '—')} | {r.get('paper_tl', '—')} |"
        )
    return "\n".join(lines)


def shape_md(rows):
    by = {(r["dataset"], r["query"], r["system"]): r for r in rows}
    lines = [
        "| dataset | query | paper winner (tput) | paper ratio | ours winner | ours ratio | shape holds? |",
        "|---|---|---|---|---|---|---|",
    ]
    agree = total = 0
    for ds in ("so", "ldbc"):
        for q in [f"Q{i}" for i in range(1, 9)]:
            sga, dd = by.get((ds, q, "SGA")), by.get((ds, q, "DD"))
            if not sga or not dd:
                continue
            p_ratio = sga["paper_tput"] / dd["paper_tput"]
            m_ratio = (
                sga["throughput_eps"] / dd["throughput_eps"]
                if dd["throughput_eps"]
                else float("inf")
            )
            p_win = "SGA" if p_ratio > 1 else "DD"
            m_win = "SGA" if m_ratio > 1 else "DD"
            # "holds" = same winner, or both within 25% of parity (a tie in
            # the paper is compatible with a tie here).
            near_tie = 0.8 <= p_ratio <= 1.25 and 0.8 <= m_ratio <= 1.25
            ok = (p_win == m_win) or near_tie
            agree += ok
            total += 1
            lines.append(
                f"| {ds} | {q} | {p_win} | {p_ratio:.2f}x | {m_win} "
                f"| {m_ratio:.2f}x | {'yes' if ok else 'NO'} |"
            )
    lines.append("")
    lines.append(f"Winner agreement: **{agree}/{total}** cells.")
    return "\n".join(lines)


def plan_space_md(rows):
    lines = [
        "| dataset | plan | tput (e/s) | tail lat (s) |",
        "|---|---|---|---|",
    ]
    for r in rows:
        lines.append(
            f"| {r['dataset']} | {r['system'].replace('plan:', '')} "
            f"| {r['throughput_eps']} | {r['tail_latency_s']} |"
        )
    base = next((r for r in rows if r["system"] == "plan:SGA"), None)
    best = max(rows, key=lambda r: r["throughput_eps"]) if rows else None
    if base and best and base["throughput_eps"]:
        gain = 100 * (best["throughput_eps"] / base["throughput_eps"] - 1)
        lines.append("")
        lines.append(
            f"Best rewritten plan ({best['system'].replace('plan:', '')}) vs the "
            f"canonical loop-caching plan: **{gain:+.0f}% throughput** "
            f"(paper reports up to +60%)."
        )
    return "\n".join(lines)


SECTIONS = ("TABLE2_RESULTS", "TABLE2_SHAPE", "PLAN_SPACE_RESULTS")


def _section(name: str):
    return re.compile(f"<!-- BEGIN {name} -->.*?<!-- END {name} -->", re.S)


def render_file(path: str) -> None:
    """Regenerate every section of ``path``; ``ValueError`` names the
    sections whose marker pair is missing."""
    with open(path) as f:
        text = f.read()
    missing = [name for name in SECTIONS if not _section(name).search(text)]
    if missing:
        raise ValueError(f"missing BEGIN/END marker pair for {', '.join(missing)}")
    t2 = load("table2")
    bodies = {"TABLE2_RESULTS": table2_md(t2), "TABLE2_SHAPE": shape_md(t2)}
    if os.path.exists(os.path.join(RESULTS, "plan_space.json")):
        bodies["PLAN_SPACE_RESULTS"] = plan_space_md(load("plan_space"))
    for name, body in bodies.items():
        block = f"<!-- BEGIN {name} -->\n{body}\n<!-- END {name} -->"
        text = _section(name).sub(lambda _: block, text, count=1)
    with open(path, "w") as f:
        f.write(text)


def main():
    path = os.path.join(ROOT, "EXPERIMENTS.md")
    try:
        render_file(path)
    except ValueError as e:
        sys.exit(f"EXPERIMENTS.md: {e}")
    print("EXPERIMENTS.md updated", file=sys.stderr)


if __name__ == "__main__":
    main()
