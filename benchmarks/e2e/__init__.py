"""End-to-end benchmark of the simulator; see README.md."""
