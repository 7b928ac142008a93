"""Host-time benchmark of the reproduction: see ``perfbench/run.py``."""
