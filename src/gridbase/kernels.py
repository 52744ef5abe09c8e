"""The reported objective on rows of X and W: `objective_batch` is
`hvac_model.objective_flat`, bound under the name the K stages call."""

from . import hvac_model as hm

BACKEND = "python"

objective_batch = hm.objective_flat
