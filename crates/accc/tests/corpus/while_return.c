/* A kernel inside a host loop that an early `return` can leave, with the
   data region still open and a host read of the device-written array. */
void while_return(int n, int iters, double *x, double *y) {
  int t = 0;
  double probe = 0.0;
#pragma acc data copyin(x[0:n]) copy(y[0:n])
  {
    while (t < iters) {
      probe = probe + y[0];
      if (probe > 100.0) { return; }
#pragma acc parallel loop
      for (int i = 0; i < n; i++) y[i] = y[i] + x[i];
      t = t + 1;
    }
  }
}
