"""The service benchmark's own code: world, client, /proc readings, spans."""
