"""The zamen benchmark: three workloads, reference checks and a per-module trace."""
