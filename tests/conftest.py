import pytest

from mixprec import sensitivity, toy_model

DEFAULT_SEED = 7
CALIB_SEED = 101


@pytest.fixture(scope="session")
def model():
    return toy_model.build_toy_unet(DEFAULT_SEED)


@pytest.fixture(scope="session")
def calib_inputs(model):
    return toy_model.make_input_set(CALIB_SEED, 32, model)


@pytest.fixture(scope="session")
def small_inputs(model):
    return toy_model.make_input_set(CALIB_SEED, 8, model)


@pytest.fixture(scope="session")
def two_chunk_inputs(model):
    """A full forward chunk and a partial one of 3 inputs; the first 8 are ``small_inputs``."""
    return toy_model.make_input_set(CALIB_SEED, toy_model.FORWARD_CHUNK + 3, model)


@pytest.fixture(scope="session")
def weight_table(model, calib_inputs):
    return sensitivity.analyze(model, calib_inputs, tensor_kind="weight", bos_aware=True)


@pytest.fixture(scope="session")
def act_table(model, calib_inputs):
    return sensitivity.analyze(model, calib_inputs, tensor_kind="activation", bos_aware=True)


@pytest.fixture(scope="session")
def act_ranges(model, calib_inputs):
    return toy_model.calibrate_activations(model, calib_inputs, bos_aware=True)
