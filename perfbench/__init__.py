"""Host-time benchmark of spectresim (see ``run.py``)."""
