"""Outside-in benchmark of the geodequiv CLI; run it with perfbench/run.py."""
