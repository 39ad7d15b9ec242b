from hypothesis import settings

# Property tests draw the same examples on every run and never fail on a
# slow example, so a tier-1 run cannot flake on the host's timing.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
