"""Host-time benchmark of the simulator: see run.py."""
