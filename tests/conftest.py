import hypothesis

# The first Addams example integrates its transform ODE, which can blow
# hypothesis' per-example deadline, so it is disabled globally.
hypothesis.settings.register_profile(
    "frailty", deadline=None, max_examples=60, print_blob=True
)
hypothesis.settings.load_profile("frailty")
