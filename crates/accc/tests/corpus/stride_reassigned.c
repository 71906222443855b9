/* The stride local is reassigned inside the kernel, so its symbolic
   identity is not stable and no window may be proved from it. */
void stride_reassigned(int n, int cols, double *a, double *b) {
#pragma acc localaccess(a) stride(cols)
#pragma acc localaccess(b) stride(cols)
#pragma acc parallel loop copyin(a[0:n*cols]) copy(b[0:n*cols])
  for (int i = 0; i < n; i++) {
    for (int j = 0; j < cols; j++) { b[i*cols + j] = a[i*cols + j]; }
    cols = cols + 1;
  }
}
