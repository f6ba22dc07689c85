"""End-to-end benchmark of the TLC reproduction (see README.md)."""
