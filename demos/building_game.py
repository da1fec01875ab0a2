"""The online building game, from single plays to exhaustive certainty.

The builder inserts vertices that walk the label trie; the painter
answers R or B per exposed edge.  The builder is chasing five specific
red edges on four vertices, the painter a blue clique on t-1.  Every
painter loses, and the point is how little the builder spends winning.
"""

from ramseykit import (
    all_blue,
    all_red,
    exhaustive_verify,
    greedy_saver,
    random_painter,
    resource_caps,
    run_game,
    upper_bound_estimate,
)


def show(t, name, painter):
    stats, transcript = run_game(t, painter)
    print(
        f"  t={t} vs {name:12s} {stats.outcome:11s} "
        f"vertices={stats.vertices_used:2d} red={stats.red_edges:2d} "
        f"edges={stats.total_edges:3d} transcript={len(transcript)} events"
    )


def main():
    print("single games:")
    for t in (4, 8):
        show(t, "all red", all_red())
        show(t, "all blue", all_blue())
        show(t, "greedy saver", greedy_saver())
        show(t, "seeded coin", random_painter(42))
    print()

    print("exhausting every painter reply:")
    for t in (3, 4):
        r = exhaustive_verify(t)
        print(
            f"  t={t}: {r.branches} leaves, worst case "
            f"(vertices, red, edges) = ({r.max_vertices}, {r.max_red}, "
            f"{r.max_edges}), insertion cap {r.vertex_bound}"
        )
    print()

    # feed the worst-case caps into the log2 certificate
    for t in (10, 100):
        val = upper_bound_estimate(t, *resource_caps(t), 1 / t)
        print(f"  t={t}: certificate at the caps = {val:,.0f} bits")


if __name__ == "__main__":
    main()
