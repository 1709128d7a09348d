"""logevo: online semantic clustering of error logs with evolution scoring."""
