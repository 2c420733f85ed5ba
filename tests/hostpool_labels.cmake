# CTest labels for the tests outside host_pool_test that render on several
# host threads.  set_tests_properties replaces a test's labels, so each
# line restates the labels its binary gives it.
set_tests_properties(RayFarmTest.ByteIdenticalAcrossPoolSizes
  PROPERTIES LABELS hostpool)
set_tests_properties(ChaosTest.ChaosFarmByteIdenticalAcrossPoolSizes
  PROPERTIES LABELS "chaos;hostpool")
