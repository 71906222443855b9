/* A parallel loop with nothing in it. */
void empty_body(int n, double *x) {
#pragma acc parallel loop copy(x[0:n])
  for (int i = 0; i < n; i++) {
  }
}
